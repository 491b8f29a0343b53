"""The threaded HTTP server: IVM-as-a-service over the JSON wire protocol.

Pure standard library: :class:`http.server.ThreadingHTTPServer` accepts
connections and runs each on its own handler thread, which reads request
heads with its own lean HTTP/1.1 reader (:meth:`_Handler.parse_request` —
request line, then the bounded header lines of
:func:`repro.client.api.read_headers` into a case-insensitive dict; no
:mod:`email` parsing).  Connections are persistent (HTTP/1.1 keep-alive)
until the client closes one or it sits idle past :attr:`_Handler.timeout`;
writes funnel into the per-tenant single-writer ingest queues, reads serve
from pinned snapshots.  Routes (all bodies JSON; ``{t}`` is the tenant
name):

========  =====================================  ==================================
method    path                                   meaning
========  =====================================  ==================================
GET       ``/health``                            liveness + uptime
GET       ``/stats``                             server + per-tenant admission stats
GET       ``/v1/{t}/datasets``                   list datasets
POST      ``/v1/{t}/datasets``                   create (``name``/``fields``/``rows``)
GET       ``/v1/{t}/datasets/{name}``            contents at the pinned snapshot
GET       ``/v1/{t}/views``                      list views
POST      ``/v1/{t}/views``                      create (``name``/``query``/``strategy``)
GET       ``/v1/{t}/views/{name}``               result at the pinned snapshot
GET       ``/v1/{t}/views/{name}/explain``       the maintenance plan, as plain JSON
GET       ``/v1/{t}/views/{name}/indexes``       live index report
GET       ``/v1/{t}/snapshot``                   all datasets+views at one version
GET       ``/v1/{t}/storage``                    the engine's storage report
POST      ``/v1/{t}/apply``                      enqueue updates (``mode`` sync/async)
POST      ``/v1/{t}/checkpoint``                 cut a durable snapshot checkpoint
GET       ``/v1/{t}/replication``                role, epoch, positions, lag
GET       ``/v1/{t}/wal``                        long-poll WAL frame feed (replicas)
POST      ``/v1/{t}/promote``                    flip a replica writable (epoch bump)
POST      ``/v1/{t}/demote``                     fence this tenant at a newer epoch
========  =====================================  ==================================

Request heads: a header line over :data:`~repro.client.api.MAX_LINE` bytes
or more than :data:`~repro.client.api.MAX_HEADERS` lines is **431**; a
malformed request line or version, a header line without a colon,
whitespace before the colon, an obs-fold continuation line, or conflicting
``Content-Length`` values are **400**; a version of ``HTTP/2.0`` or higher
is **505**; a method other than ``GET`` / ``POST`` is **405**.  Each
refusal closes the connection; an empty request line closes it without an
answer.

Error bodies are ``{"error": {"code": ..., "message": ...}}``.  A full
ingest queue answers **429** with a ``Retry-After`` header (seconds, float)
estimated from the tenant's observed batch latency.

Read consistency: every ``GET`` under ``/v1/{t}/`` loads the tenant's
published snapshot exactly once and answers entirely from it, so the
``version`` field in the response identifies one consistent engine state —
even while writers are storming.

Versioned reads: dataset, view and snapshot responses carry the pinned
engine version as an ``ETag`` header (``"<version>"``); a request whose
``If-None-Match`` matches answers **304 Not Modified** with no body (what
the CLI's ``watch`` and the SDK's ``etag=`` polling use).  ``?limit=N`` /
``?offset=K`` page the result pairs without copying the bag (a ``limit``
above :data:`MAX_PAGE_ROWS` is 413), and because
pages are cut from one pinned frozen snapshot, walking offsets at
a fixed ETag tiles the full result exactly.

Encode once per version: a full (un-paged) read of a dataset, a view or the
snapshot is answered from the pinned snapshot's ``bodies`` map — the first
reader of a version builds the JSON body, every later one sends the same
bytes (``body_misses`` / ``body_hits`` in ``/stats``).  The map is born
empty at publish and dies with its snapshot.  Every response leaves in a
single socket write (:meth:`_Handler._send_body`): on a persistent
connection a header-then-body pair of small writes would wait out the
peer's delayed ACK.

Shutdown: :meth:`ReproServer.close` stops accepting connections and stops
reading further requests from the open ones, drains every tenant's ingest
queue, and closes every engine (joining scheduler
threads via ``Engine.close``).  :meth:`install_signal_handlers` wires
SIGTERM/SIGINT to exactly that, so a supervised server exits cleanly.
"""

from __future__ import annotations

import email.utils
import json
import re
import signal
import socket
import threading
import time
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.client.api import APIClient, HeadError, read_headers
from repro.errors import EngineError, NotInFragmentError, ReproError
from repro.serve.ingest import BackpressureError
from repro.serve.protocol import (
    ProtocolError,
    decode_update,
    encode_bag_page,
    fields_spec_of,
)
from repro.serve.sessions import (
    PublishedSnapshot,
    SessionManager,
    TenantNotWritableError,
    TenantRecoveringError,
    TenantSession,
)

__all__ = ["ReproServer", "ServerConfig"]

#: Largest request body the server reads (a bigger ``Content-Length`` is 413).
MAX_BODY_BYTES = 64 << 20

#: Largest page a read may ask for (a bigger ``?limit=`` is 413): pages are
#: encoded per request, so an unbounded one would be an uncached full read.
MAX_PAGE_ROWS = 10_000

#: HTTP status of the :class:`ProtocolError` codes that are not plain 400s.
_STATUS_OF_CODE = {"not_found": 404, "epoch_conflict": 409, "too_large": 413}


def _json_bytes(payload: Any) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def _epoch(value: Any) -> int:
    """A promote or demote body's ``epoch``: a JSON integer, never a bool."""
    if type(value) is not int:
        raise ProtocolError(f"'epoch' must be an integer, got {value!r}")
    return value


#: A request line's version: ``HTTP/<major>.<minor>``, ASCII digits only.
_VERSION = re.compile(r"HTTP/(\d{1,10})\.(\d{1,10})", re.ASCII)


class ServerConfig:
    """Knobs of one server instance (see ``docs/serve.md``)."""

    __slots__ = (
        "host",
        "port",
        "queue_depth",
        "coalesce",
        "quiet",
        "data_dir",
        "fsync",
        "replica_of",
        "poll_wait",
        "poll_interval",
    )

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8765,
        *,
        queue_depth: int = 256,
        coalesce: int = 64,
        quiet: bool = True,
        data_dir: Optional[str] = None,
        fsync: Optional[str] = None,
        replica_of: Optional[str] = None,
        poll_wait: float = 5.0,
        poll_interval: float = 0.05,
    ) -> None:
        self.host = host
        self.port = port
        self.queue_depth = queue_depth
        self.coalesce = coalesce
        self.quiet = quiet
        self.data_dir = data_dir
        self.fsync = fsync
        # Replication: base URL of the upstream server whose same-named
        # tenants this server follows (``repro-cli serve --replica-of``).
        self.replica_of = replica_of
        self.poll_wait = poll_wait
        self.poll_interval = poll_interval


class _Handler(BaseHTTPRequestHandler):
    """Routes one request; all state lives on ``self.server.repro``."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1.0"
    #: Socket timeout of a connection: one idle this long between requests
    #: (or stalled this long mid-request) is closed, so a silent client
    #: cannot hold its handler thread forever.
    timeout = 60.0

    # ------------------------------------------------------------------ #
    # Request heads
    # ------------------------------------------------------------------ #
    def parse_request(self) -> bool:
        """Read the request head that follows ``raw_requestline``.

        Sets ``command``, ``path``, ``request_version``, ``headers`` and
        ``close_connection``, and answers ``Expect: 100-continue``; True when
        the request goes on to dispatch.  A refused head is answered with
        :meth:`send_error` and gives False.
        """
        self.command = None
        self.close_connection = True
        self.requestline = requestline = str(
            self.raw_requestline, "iso-8859-1"
        ).rstrip("\r\n")
        words = requestline.split()
        if not words:
            return False
        try:
            if len(words) != 3:
                raise HeadError(400, f"Bad request syntax ({requestline!r})")
            command, path, version = words
            match = _VERSION.fullmatch(version)
            if match is None:
                raise HeadError(400, f"Bad request version ({version!r})")
            number = int(match[1]), int(match[2])
            if number >= (2, 0):
                raise HeadError(505, f"Invalid HTTP version ({version[5:]})")
            self.request_version = version
            self.command = command
            # ``//x`` would read as a scheme-relative URL; collapse it.
            self.path = "/" + path.lstrip("/") if path.startswith("//") else path
            self.headers = headers = read_headers(self.rfile)
            if command not in ("GET", "POST"):
                raise HeadError(405, f"Unsupported method ({command!r})")
        except HeadError as error:
            self.send_error(error.status, str(error))
            return False
        connection = headers.get("Connection", "").lower()
        self.close_connection = connection == "close" or (
            connection != "keep-alive" and number < (1, 1)
        )
        if number >= (1, 1) and headers.get("Expect", "").lower() == "100-continue":
            return self.handle_expect_100()
        return True

    def send_error(
        self, code: int, message: Optional[str] = None, explain: Optional[str] = None
    ) -> None:
        """Refuse a request head (the stdlib's 414 for an over-long request
        line comes here too) the way every error is answered — a JSON body
        in one write — and close: the rest of the head is unread."""
        self._body_unread = True
        status = HTTPStatus(code)
        self._send_error_json(code, status.name.lower(), message or status.phrase)

    def date_time_string(self, timestamp: Optional[float] = None) -> str:
        """The ``Date`` header value, formatted at most once a second:
        ``formatdate`` costs about as much as a tenth of a whole 304."""
        if timestamp is not None:
            return super().date_time_string(timestamp)
        second = int(time.time())
        date = self.server.date  # type: ignore[attr-defined]
        if date[0] != second:
            date = self.server.date = (  # type: ignore[attr-defined]
                second,
                email.utils.formatdate(second, usegmt=True),
            )
        return date[1]

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if not self.server.repro.config.quiet:  # type: ignore[attr-defined]
            super().log_message(format, *args)

    def _send_body(
        self, status: int, body: bytes = b"", headers: Optional[Dict[str, str]] = None
    ) -> None:
        """The one way a response leaves: status line, headers and body in a
        single write.  A response sent while request bytes are still unread
        closes the connection, so they are never parsed as the next request."""
        self.log_request(status, len(body))
        lines = [
            f"{self.protocol_version} {status} {HTTPStatus(status).phrase}",
            f"Server: {self.version_string()}",
            f"Date: {self.date_time_string()}",
            f"Content-Length: {len(body)}",
        ]
        if body:
            lines.append("Content-Type: application/json")
        if self._body_unread:
            self.close_connection = True
            lines.append("Connection: close")
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        head = "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n"
        self.wfile.write(head + body)

    def _send_json(
        self, payload: Any, status: int = 200, headers: Optional[Dict[str, str]] = None
    ) -> None:
        self._send_body(status, _json_bytes(payload), headers)

    def _send_error_json(
        self,
        status: int,
        code: str,
        message: str,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self._send_json(
            {"error": {"code": code, "message": message}}, status=status, headers=headers
        )

    # ------------------------------------------------------------------ #
    # Versioned reads: ETags, pages and once-per-version bodies
    # ------------------------------------------------------------------ #
    def _if_none_match(self, etag: str) -> bool:
        """Does the request's ``If-None-Match`` cover this snapshot's ETag?"""
        header = self.headers.get("If-None-Match")
        if header is None:
            return False
        candidates = [tag.strip() for tag in header.split(",")]
        return "*" in candidates or any(
            tag == etag or (tag.startswith("W/") and tag[2:] == etag)
            for tag in candidates
        )

    @staticmethod
    def _page_params(query: Dict[str, str]) -> Tuple[Optional[int], int]:
        """``?limit=N&offset=K`` as validated ints (limit None = everything).

        A limit above :data:`MAX_PAGE_ROWS` is refused: a full read is the
        un-paged one, whose body each version encodes once.
        """

        def _int_of(name: str) -> Optional[int]:
            raw = query.get(name)
            if raw is None:
                return None
            try:
                value = int(raw)
            except ValueError:
                raise ProtocolError(f"{name!r} must be an integer, got {raw!r}") from None
            if value < 0:
                raise ProtocolError(f"{name!r} must be non-negative, got {value}")
            return value

        limit = _int_of("limit")
        if limit is not None and limit > MAX_PAGE_ROWS:
            raise ProtocolError(
                f"'limit' of {limit} rows exceeds the {MAX_PAGE_ROWS}-row page bound; "
                f"read without 'limit' for the whole result",
                code="too_large",
            )
        return limit, _int_of("offset") or 0

    def _send_versioned(
        self,
        session: TenantSession,
        snapshot: PublishedSnapshot,
        resource: str,
        query: Dict[str, str],
        build: Callable[[Optional[int], int], Dict[str, Any]],
    ) -> None:
        """Answer a dataset / view / snapshot read at the pinned version.

        304 when ``If-None-Match`` covers it; a page is encoded per request;
        the full body is encoded by the first reader of this version and
        taken from ``snapshot.bodies`` by everyone after (two first readers
        racing both encode — the same bytes — and one entry survives).
        """
        etag = f'"{snapshot.version}"'
        if self._if_none_match(etag):
            self._send_body(304, headers={"ETag": etag})
            return
        limit, offset = self._page_params(query)
        if limit is not None or offset:
            body = _json_bytes(build(limit, offset))
        else:
            body = snapshot.bodies.get(resource)
            session.count_full_read(hit=body is not None)
            if body is None:
                body = snapshot.bodies[resource] = _json_bytes(build(None, 0))
        self._send_body(200, body, {"ETag": etag})

    def _read_body(self) -> Any:
        raw_length = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            length = -1
        if length < 0:
            raise ProtocolError(
                f"'Content-Length' must be a non-negative integer, got {raw_length!r}"
            )
        if length > MAX_BODY_BYTES:
            raise ProtocolError(
                f"request body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit",
                code="too_large",
            )
        if length == 0:
            return {}
        raw = self.rfile.read(length)
        self._body_unread = False
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ProtocolError(f"request body is not valid JSON: {error}") from None
        except RecursionError:
            raise ProtocolError("request body nests too deeply to parse") from None

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        server: "ReproServer" = self.server.repro  # type: ignore[attr-defined]
        if server._closed:
            # Read off a persistent connection after close() began (bytes
            # that arrive after stop_reading() are still delivered): hang
            # up unanswered, as a server that is gone would.
            self.close_connection = True
            return
        server.requests_served += 1
        # Until _read_body consumes it, a declared body is still on the wire.
        self._body_unread = (
            self.headers.get("Content-Length") not in (None, "0")
            or "Transfer-Encoding" in self.headers
        )
        url = urlparse(self.path)
        parts = [part for part in url.path.split("/") if part]
        query = {key: values[-1] for key, values in parse_qs(url.query).items()}
        try:
            self._route(server, method, parts, query)
        except BackpressureError as error:
            self._send_error_json(
                429,
                "backpressure",
                str(error),
                headers={"Retry-After": f"{error.retry_after:.3f}"},
            )
        except TenantRecoveringError as error:
            # Before the ReproError arm: recovery-in-progress is a 503 the
            # SDK retries after Retry-After, not a client error.
            self._send_error_json(
                503,
                "recovering",
                str(error),
                headers={"Retry-After": f"{error.retry_after:.3f}"},
            )
        except TenantNotWritableError as error:
            # 503 with NO Retry-After: retrying this node can never
            # succeed, so the plain SDK surfaces the error immediately and
            # the FailoverClient goes looking for the current primary.
            self._send_error_json(503, "not_writable", str(error))
        except ProtocolError as error:
            self._send_error_json(
                _STATUS_OF_CODE.get(error.code, 400), error.code, str(error)
            )
        except NotInFragmentError as error:
            self._send_error_json(400, "not_in_fragment", str(error))
        except (EngineError, ReproError) as error:
            self._send_error_json(400, "engine_error", str(error))
        except TimeoutError as error:
            self._send_error_json(503, "apply_timeout", str(error))
        except Exception as error:  # noqa: BLE001 - last-resort 500
            self._send_error_json(500, "internal", f"{type(error).__name__}: {error}")

    def _route(
        self,
        server: "ReproServer",
        method: str,
        parts: list,
        query: Dict[str, str],
    ) -> None:
        if parts == ["health"]:
            recovering = list(server.sessions.recovering())
            self._send_json(
                {
                    "status": "recovering" if recovering else "ok",
                    "uptime_seconds": time.time() - server.started_at,
                    "tenants": list(server.sessions.names()),
                    "recovering": recovering,
                    "recovery_failed": server.sessions.recovery_failures(),
                    "replica_of": server.config.replica_of,
                    "replication": server.sessions.replication_summary(),
                }
            )
            return
        if parts == ["stats"]:
            self._send_json(server.stats())
            return
        if len(parts) >= 2 and parts[0] == "v1":
            session = server.sessions.get(parts[1])
            rest = parts[2:]
            if method == "GET":
                self._route_tenant_get(session, rest, query)
            else:
                self._route_tenant_post(session, rest)
            return
        raise ProtocolError(f"no route for {method} {self.path!r}", code="not_found")

    # ------------------------------------------------------------------ #
    # Tenant reads: answer entirely from one pinned snapshot
    # ------------------------------------------------------------------ #
    def _route_tenant_get(
        self, session: TenantSession, rest: list, query: Dict[str, str]
    ) -> None:
        snapshot = session.snapshot  # pinned once per request
        if rest == ["datasets"]:
            # The version's counts, shared with the datasets' pages.
            counted = {
                name: snapshot.counted(f"datasets/{name}", bag)
                for name, bag in snapshot.datasets.items()
            }
            self._send_json(
                {
                    "version": snapshot.version,
                    "datasets": [
                        {
                            "name": name,
                            "fields": fields_spec_of(session.records[name])
                            if name in session.records
                            else [],
                            "distinct": counted[name].distinct_size(),
                            "cardinality": counted[name].cardinality(),
                        }
                        for name in sorted(counted)
                    ],
                }
            )
            return
        if len(rest) == 2 and rest[0] == "datasets":
            name = rest[1]
            bag = snapshot.datasets.get(name)
            if bag is None:
                raise ProtocolError(f"no dataset named {name!r}", code="not_found")
            self._send_versioned(
                session,
                snapshot,
                f"datasets/{name}",
                query,
                lambda limit, offset: {
                    "version": snapshot.version,
                    "dataset": name,
                    **encode_bag_page(
                        snapshot.counted(f"datasets/{name}", bag), limit, offset
                    ),
                },
            )
            return
        if rest == ["views"]:
            self._send_json(
                {
                    "version": snapshot.version,
                    "views": [
                        {
                            "name": handle.name,
                            "strategy": handle.strategy,
                            "execution": handle.execution,
                            "updates_applied": handle.stats.updates_applied,
                            "distinct": snapshot.views[handle.name].distinct_size()
                            if handle.name in snapshot.views
                            else 0,
                        }
                        for handle in session.engine.views()
                    ],
                }
            )
            return
        if len(rest) >= 2 and rest[0] == "views":
            name = rest[1]
            if len(rest) == 2:
                bag = snapshot.views.get(name)
                if bag is None:
                    raise ProtocolError(f"no view named {name!r}", code="not_found")
                self._send_versioned(
                    session,
                    snapshot,
                    f"views/{name}",
                    query,
                    lambda limit, offset: {
                        "version": snapshot.version,
                        "view": name,
                        "strategy": session.view_handle(name).strategy,
                        **encode_bag_page(
                            snapshot.counted(f"views/{name}", bag), limit, offset
                        ),
                    },
                )
                return
            if rest[2:] == ["explain"]:
                handle = session.view_handle(name)
                self._send_json(
                    {"version": snapshot.version, "plan": handle.plan.to_dict()}
                )
                return
            if rest[2:] == ["indexes"]:
                handle = session.view_handle(name)
                self._send_json(
                    {"version": snapshot.version, "indexes": handle.indexes()}
                )
                return
        if rest == ["snapshot"]:
            self._send_versioned(
                session,
                snapshot,
                "snapshot",
                query,
                lambda limit, offset: {
                    "version": snapshot.version,
                    "datasets": {
                        name: encode_bag_page(
                            snapshot.counted(f"datasets/{name}", bag), limit, offset
                        )
                        for name, bag in sorted(snapshot.datasets.items())
                    },
                    "views": {
                        name: encode_bag_page(
                            snapshot.counted(f"views/{name}", bag), limit, offset
                        )
                        for name, bag in sorted(snapshot.views.items())
                    },
                },
            )
            return
        if rest == ["storage"]:
            self._send_json(
                {
                    "version": snapshot.version,
                    "storage": session.engine.storage_report(),
                }
            )
            return
        if rest == ["replication"]:
            self._send_json(session.replication_status())
            return
        if rest == ["wal"]:
            def _int_param(name: str, default: int = 0) -> int:
                raw = query.get(name)
                if raw is None:
                    return default
                try:
                    return int(raw)
                except ValueError:
                    raise ProtocolError(
                        f"{name!r} must be an integer, got {raw!r}"
                    ) from None

            try:
                wait = float(query.get("wait", "0") or 0.0)
            except ValueError:
                raise ProtocolError(
                    f"'wait' must be a number, got {query.get('wait')!r}"
                ) from None
            self._send_json(
                session.wal_feed(
                    _int_param("from_segment", 1),
                    _int_param("from_offset", 0),
                    wait=wait,
                    max_bytes=max(1, _int_param("max_bytes", 1 << 20)),
                    want_bootstrap=query.get("bootstrap") in ("1", "true"),
                    subscriber_epoch=_int_param("epoch", 0),
                )
            )
            return
        raise ProtocolError(f"no route for GET {self.path!r}", code="not_found")

    # ------------------------------------------------------------------ #
    # Tenant writes: funnel through the single-writer ingest queue
    # ------------------------------------------------------------------ #
    def _route_tenant_post(self, session: TenantSession, rest: list) -> None:
        body = self._read_body()
        if rest == ["datasets"]:
            if not isinstance(body, dict) or "name" not in body:
                raise ProtocolError("dataset creation needs {'name', 'fields', 'rows'?}")
            result = session.create_dataset(
                str(body["name"]), body.get("fields"), body.get("rows")
            )
            self._send_json(result, status=201)
            return
        if rest == ["views"]:
            if not isinstance(body, dict) or "name" not in body or "query" not in body:
                raise ProtocolError("view creation needs {'name', 'query', 'strategy'?}")
            result = session.create_view(
                str(body["name"]), body["query"], str(body.get("strategy", "auto"))
            )
            self._send_json(result, status=201)
            return
        if rest == ["apply"]:
            if not isinstance(body, dict) or "updates" not in body:
                raise ProtocolError("apply needs {'updates': [...], 'mode'?}")
            updates_payload = body["updates"]
            if not isinstance(updates_payload, list) or not updates_payload:
                raise ProtocolError("'updates' must be a non-empty list")
            mode = body.get("mode", "sync")
            if mode not in ("sync", "async"):
                raise ProtocolError(f"apply mode must be 'sync' or 'async', got {mode!r}")
            updates = [decode_update(entry) for entry in updates_payload]
            known = session.snapshot.datasets
            for update in updates:
                for relation in update.relations:
                    if relation not in known:
                        raise ProtocolError(
                            f"no dataset named {relation!r}", code="not_found"
                        )
            if mode == "async":
                commands = [session.submit_apply(update) for update in updates]
                self._send_json(
                    {
                        "accepted": len(commands),
                        "queue_depth": session.worker.depth(),
                    },
                    status=202,
                )
                return
            results = [session.apply_sync(update) for update in updates]
            self._send_json({"applied": len(results), "results": results})
            return
        if rest == ["checkpoint"]:
            self._send_json(session.checkpoint(), status=201)
            return
        if rest == ["promote"]:
            epoch = body.get("epoch") if isinstance(body, dict) else None
            self._send_json(
                session.promote(epoch=None if epoch is None else _epoch(epoch))
            )
            return
        if rest == ["demote"]:
            if not isinstance(body, dict) or "epoch" not in body:
                raise ProtocolError("demote needs {'epoch', 'reason'?}")
            self._send_json(
                session.demote(
                    _epoch(body["epoch"]),
                    str(body.get("reason", "demoted by operator")),
                )
            )
            return
        raise ProtocolError(f"no route for POST {self.path!r}", code="not_found")


class _HTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    repro: "ReproServer"

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self._connections: set = set()  # open client sockets
        # The Date header of the current second: (whole second, text).
        self.date: Tuple[int, str] = (0, "")

    def get_request(self) -> Tuple[socket.socket, Any]:
        request = super().get_request()
        self._connections.add(request[0])
        return request

    def shutdown_request(self, request: Any) -> None:
        self._connections.discard(request)
        super().shutdown_request(request)

    def stop_reading(self) -> None:
        """End every open connection's request stream (call after
        ``shutdown()``): an idle handler sees EOF and exits, a busy one
        still writes its response first.  Without this a closed server
        would keep answering on its persistent connections."""
        for connection in list(self._connections):
            try:
                connection.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # the peer already closed it


class ReproServer:
    """Owns the listening socket, the tenants, and the shutdown sequence."""

    def __init__(self, config: Optional[ServerConfig] = None, **kwargs: Any) -> None:
        self.config = config or ServerConfig(**kwargs)
        # A replica_of that is not an http:// URL stops the server here,
        # before it listens.
        upstream = (
            None
            if self.config.replica_of is None
            else APIClient(self.config.replica_of, timeout=5.0, max_retries=0)
        )
        self.sessions = SessionManager(
            queue_depth=self.config.queue_depth,
            coalesce=self.config.coalesce,
            data_dir=self.config.data_dir,
            fsync=self.config.fsync,
            replica_of=self.config.replica_of,
            poll_wait=self.config.poll_wait,
            poll_interval=self.config.poll_interval,
        )
        self.started_at = time.time()
        self.requests_served = 0
        self._httpd = _HTTPServer((self.config.host, self.config.port), _Handler)
        self._httpd.repro = self
        self._thread: Optional[threading.Thread] = None
        self._serving = False  # set by start() / serve_forever()
        self._recovery_thread: Optional[threading.Thread] = None
        self._discovery_thread: Optional[threading.Thread] = None
        self._closed = False
        self._close_lock = threading.Lock()
        self._close_done = threading.Event()
        if upstream is not None:
            # Follow the upstream's tenant list: any tenant the primary
            # serves gets a local replica session (which bootstraps itself
            # over the WAL feed) without waiting for a client to ask.
            self._discovery_thread = threading.Thread(
                target=self._discover_upstream_tenants,
                args=(upstream,),
                name="repro-serve-discover",
                daemon=True,
            )
            self._discovery_thread.start()
        if self.config.data_dir is not None:
            # Recover existing tenants off the accept path: the server
            # answers /health as "recovering" (and tenant requests as 503 +
            # Retry-After) until each replay finishes.
            self._recovery_thread = threading.Thread(
                target=self.sessions.recover_existing,
                name="repro-serve-recover",
                daemon=True,
            )
            self._recovery_thread.start()

    # ------------------------------------------------------------------ #
    def _discover_upstream_tenants(self, upstream: APIClient) -> None:
        """Poll the upstream's ``/health`` and open replica sessions.

        Best-effort and quiet: a partitioned or dead upstream just means
        no *new* tenants appear — existing replica sessions keep their own
        links (which do their own retrying).
        """
        while not self._closed:
            try:
                for name in upstream.get("health").get("tenants", []):
                    if self._closed:
                        break
                    try:
                        self.sessions.get(str(name))
                    except Exception:  # noqa: BLE001 - recovering/bad name
                        pass
            except Exception:  # noqa: BLE001 - upstream unreachable
                pass
            for _ in range(10):
                if self._closed:
                    break
                time.sleep(0.2)
        upstream.close()

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) — port resolved even when configured as 0."""
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def stats(self) -> Dict[str, Any]:
        return {
            "server": {
                "url": self.url,
                "uptime_seconds": time.time() - self.started_at,
                "requests_served": self.requests_served,
                "queue_depth_bound": self.config.queue_depth,
                "coalesce_bound": self.config.coalesce,
                "active_threads": threading.active_count(),
            },
            "tenants": self.sessions.stats(),
        }

    # ------------------------------------------------------------------ #
    # Run
    # ------------------------------------------------------------------ #
    def start(self) -> "ReproServer":
        """Serve on a background thread (tests, benchmarks, embedding)."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        with self._close_lock:
            self._serving = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-serve-accept",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (what ``repro-cli serve`` runs)."""
        with self._close_lock:  # a close() that came first skipped the shutdown
            self._serving = not self._closed
        if self._serving:
            self._httpd.serve_forever()

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → graceful close (drain ingest, join schedulers).

        Only callable from the main thread (a CPython signal constraint);
        embedded servers call :meth:`close` themselves instead.
        """

        def _handle(signum: int, frame: Any) -> None:  # noqa: ARG001
            # Signal handlers run on the main thread — the same thread
            # ``repro-cli serve`` parks in ``serve_forever()``.  Closing
            # inline would deadlock: ``httpd.shutdown()`` waits for the
            # serve loop to exit, and the serve loop is suspended under
            # this very handler.  Close from a helper thread instead; the
            # unblocked ``serve_forever`` returns and the CLI's own
            # ``close()`` call then waits for this close to finish.
            threading.Thread(
                target=self.close,
                kwargs={"drain": True},
                name="repro-serve-shutdown",
                daemon=True,
            ).start()

        signal.signal(signal.SIGTERM, _handle)
        signal.signal(signal.SIGINT, _handle)

    def close(self, drain: bool = True) -> None:
        """Stop accepting connections and requests, drain every tenant,
        close every engine.

        ``drain=True`` (the SIGTERM path) applies everything already queued
        before exiting, so acknowledged synchronous writes are never lost;
        ``drain=False`` abandons queued work (pending waiters get errors).
        Idempotent and thread-safe.
        """
        with self._close_lock:
            first = not self._closed
            self._closed = True
            serving = self._serving
        if not first:
            # A close is already in flight (e.g. the signal-handler thread);
            # wait for it so "after close() returns" means fully closed.
            self._close_done.wait(60.0)
            return
        try:
            if serving:
                # ``shutdown()`` waits for the serve loop: one never run hangs it.
                self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd.stop_reading()
            if self._thread is not None:
                self._thread.join(10.0)
                self._thread = None
            if self._recovery_thread is not None:
                self._recovery_thread.join(30.0)
                self._recovery_thread = None
            if self._discovery_thread is not None:
                self._discovery_thread.join(10.0)
                self._discovery_thread = None
            self.sessions.close_all(drain=drain)
        finally:
            self._close_done.set()

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"<ReproServer {self.url} {state} tenants={list(self.sessions.names())}>"
