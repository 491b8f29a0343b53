"""The serve wire path: one body per published version, one connection per
client, and request bodies that cannot desynchronise a persistent connection.

The cache tests compare what the server sends with the payload built the
long way from the pinned snapshot; the connection tests talk to the server
over raw sockets (to see exactly which bytes come back on one connection)
and drive :class:`~repro.client.api.APIClient` against a scripted socket
peer (to see exactly which requests it sends, and how often).
"""

from __future__ import annotations

import http.client
import json
import re
import socket
import sys
import threading
import time

import pytest

from repro.client import DatasetsClient, ServerClient, UpdatesClient, ViewsClient
from repro.client.api import APIClient, APIError
from repro.serve import ReproServer, ServerConfig
from repro.serve import server as server_module
from repro.serve.protocol import encode_bag_page

TENANT = "default"
DRAMAS_SPEC = {
    "from": "M",
    "var": "m",
    "where": ["eq", ["field", "m", "gen"], ["const", "Drama"]],
    "select": [["field", "m", "name"]],
}
RELATED_SPEC = {
    "from": "M",
    "var": "m",
    "select": [
        ["field", "m", "name"],
        [
            "nest",
            {
                "from": "M",
                "var": "m2",
                "where": [
                    "and",
                    ["ne", ["field", "m", "name"], ["field", "m2", "name"]],
                    ["eq", ["field", "m", "dir"], ["field", "m2", "dir"]],
                ],
                "select": [["field", "m2", "name"]],
            },
        ],
    ],
}


@pytest.fixture
def server():
    with ReproServer(ServerConfig(port=0)) as instance:
        yield instance


@pytest.fixture
def api(server):
    client = APIClient(server.url, max_retries=0)
    yield client
    client.close()


def _seed(api):
    rows = [[f"m{i}", "Drama" if i % 2 else "Noir", f"d{i % 3}"] for i in range(20)]
    DatasetsClient(api).create("M", fields=["name", "gen", "dir"], rows=rows)
    views = ViewsClient(api)
    views.create("dramas", DRAMAS_SPEC, strategy="classic")
    views.create("related", RELATED_SPEC, strategy="nested")


def _get(server, path, headers=None):
    """One GET on its own connection: (status, headers, raw body bytes)."""
    connection = http.client.HTTPConnection(*server.address, timeout=10)
    try:
        connection.request("GET", path, headers=headers or {})
        response = connection.getresponse()
        return response.status, response.headers, response.read()
    finally:
        connection.close()


# --------------------------------------------------------------------------- #
# One body per published version
# --------------------------------------------------------------------------- #
def _expected(server, resource, limit=None, offset=0):
    """The payload of ``resource``, built straight from the pinned snapshot
    the way every read was answered before bodies were kept."""
    session = server.sessions.get(TENANT)
    snapshot = session.snapshot
    kind, _, name = resource.partition("/")
    if kind == "views":
        return {
            "version": snapshot.version,
            "view": name,
            "strategy": session.view_handle(name).strategy,
            **encode_bag_page(snapshot.views[name], limit, offset),
        }
    if kind == "datasets":
        return {
            "version": snapshot.version,
            "dataset": name,
            **encode_bag_page(snapshot.datasets[name], limit, offset),
        }
    return {
        "version": snapshot.version,
        "datasets": {
            name: encode_bag_page(bag, limit, offset)
            for name, bag in snapshot.datasets.items()
        },
        "views": {
            name: encode_bag_page(bag, limit, offset)
            for name, bag in snapshot.views.items()
        },
    }


RESOURCES = ["views/dramas", "views/related", "datasets/M", "snapshot"]


class TestBodyPerVersion:
    @pytest.mark.parametrize("resource", RESOURCES)
    def test_body_equals_the_uncached_payload(self, server, api, resource):
        _seed(api)
        # json round trip: the wire has lists where the encoder has tuples.
        want_full = json.loads(json.dumps(_expected(server, resource)))
        want_page = json.loads(json.dumps(_expected(server, resource, 3, 2)))
        for _ in range(3):  # miss, then hits
            status, headers, body = _get(server, f"/v1/{TENANT}/{resource}")
            assert status == 200
            assert json.loads(body) == want_full
            assert headers["ETag"] == f'"{want_full["version"]}"'
            assert int(headers["Content-Length"]) == len(body)
        _, _, body = _get(server, f"/v1/{TENANT}/{resource}?limit=3&offset=2")
        assert json.loads(body) == want_page
        # offset=0 without a limit is the full read, not a page.
        _, _, body = _get(server, f"/v1/{TENANT}/{resource}?offset=0")
        assert json.loads(body) == want_full

    def test_full_reads_of_one_version_encode_once(self, server, api, monkeypatch):
        _seed(api)
        calls = []

        def counted(bag, limit=None, offset=0):
            calls.append((limit, offset))
            return encode_bag_page(bag, limit, offset)

        monkeypatch.setattr(server_module, "encode_bag_page", counted)
        views = ViewsClient(api)
        first = views.show("dramas")
        for _ in range(5):
            assert views.show("dramas") == first
        assert calls == [(None, 0)]
        assert DatasetsClient(api).show("M") == DatasetsClient(api).show("M")
        assert calls == [(None, 0)] * 2
        # A page is encoded per request and leaves the kept body alone.
        views.show("dramas", limit=2)
        views.show("dramas", limit=2)
        assert calls[2:] == [(2, 0)] * 2
        stats = ServerClient(api).stats()["tenants"][TENANT]
        assert (stats["body_misses"], stats["body_hits"]) == (2, 6)

        # The next version starts from an empty map: one more encode.
        UpdatesClient(api).insert("M", [["new", "Drama", "d9"]])
        fresh = views.show("dramas")
        assert fresh["version"] > first["version"]
        assert ["new", 1] in fresh["pairs"]
        assert views.show("dramas") == fresh
        assert calls[4:] == [(None, 0)]

    def test_bodies_die_with_their_snapshot(self, server, api):
        _seed(api)
        session = server.sessions.get(TENANT)
        old = session.snapshot
        ViewsClient(api).show("dramas")
        assert list(old.bodies) == ["views/dramas"]
        UpdatesClient(api).insert("M", [["new", "Drama", "d9"]])
        assert session.snapshot is not old
        assert session.snapshot.bodies == {}

    def test_body_version_always_matches_its_etag(self, server, api):
        """Readers racing publishes: whatever version a response carries in
        its ETag is the version of the body behind it."""
        _seed(api)
        stop = threading.Event()
        problems = []
        observed = {}  # ETag version -> the written names its body held
        reads = []

        def reader():
            connection = http.client.HTTPConnection(*server.address, timeout=10)
            try:
                while not stop.is_set():
                    connection.request("GET", f"/v1/{TENANT}/views/dramas")
                    response = connection.getresponse()
                    payload = json.loads(response.read())
                    reads.append(1)
                    etag = response.headers["ETag"]
                    if etag != f'"{payload["version"]}"':
                        problems.append((etag, payload["version"]))
                    names = frozenset(
                        pair[0] for pair in payload["pairs"] if pair[0].startswith("w")
                    )
                    if observed.setdefault(payload["version"], names) != names:
                        problems.append(("two bodies for", payload["version"]))
            except Exception as error:  # noqa: BLE001 - reported below
                problems.append(error)
            finally:
                connection.close()

        readers = [threading.Thread(target=reader) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # many more hand-overs between the threads
        try:
            for thread in readers:
                thread.start()
            updates = UpdatesClient(api)
            acked = {}  # version -> the names written up to it
            for i in range(40):
                applied = updates.insert("M", [[f"w{i}", "Drama", "d0"]])
                acked[applied["results"][-1]["version"]] = frozenset(
                    f"w{j}" for j in range(i + 1)
                )
            stop.set()
            for thread in readers:
                thread.join(10.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in readers)
        assert not problems, problems[:3]
        stats = ServerClient(api).stats()["tenants"][TENANT]
        assert stats["body_hits"] + stats["body_misses"] == len(reads)
        # Every version that was read was encoded, a racing pair maybe twice.
        assert len(observed) <= stats["body_misses"] <= len(observed) + len(reads) // 4
        assert len(observed) > 1
        for version, names in observed.items():
            if version in acked:
                assert names == acked[version]


# --------------------------------------------------------------------------- #
# Request bodies on a persistent connection
# --------------------------------------------------------------------------- #
def _talk(server, data, timeout=5.0):
    """Send ``data`` on one connection; return every byte the server answers
    until it closes the connection (or goes quiet for ``timeout``)."""
    received = b""
    with socket.create_connection(server.address, timeout=timeout) as sock:
        sock.sendall(data)
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    return received, True
                received += chunk
        except ConnectionResetError:  # closed with our bytes still unread
            return received, True
        except socket.timeout:
            return received, False


def _post(path, body=b"", length=None):
    length = len(body) if length is None else length
    return (
        f"POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {length}\r\n\r\n"
    ).encode() + body


GET_HEALTH = b"GET /health HTTP/1.1\r\nHost: t\r\n\r\n"


def _statuses(received):
    return [int(status) for status in re.findall(rb"HTTP/1\.1 (\d{3}) ", received)]


class TestRequestBodies:
    @pytest.mark.parametrize("length", ["twelve", "-5", "1e3"])
    def test_bad_content_length_is_400_and_closes(self, server, length):
        received, closed = _talk(server, _post(f"/v1/{TENANT}/apply", length=length))
        assert _statuses(received) == [400]
        assert b'"bad_request"' in received and b"Connection: close" in received
        assert closed

    def test_oversized_body_is_413_before_reading_it(self, server, monkeypatch):
        monkeypatch.setattr(server_module, "MAX_BODY_BYTES", 64)
        # Only the head is sent: the answer must not wait for 65 bytes.
        received, closed = _talk(server, _post(f"/v1/{TENANT}/apply", length=65))
        assert _statuses(received) == [413]
        assert b'"too_large"' in received
        assert closed
        # At the limit the body is read (and refused for what it says).
        body = json.dumps({"updates": []}).ljust(64).encode()
        received, _ = _talk(server, _post(f"/v1/{TENANT}/apply", body) + GET_HEALTH, 0.5)
        assert _statuses(received) == [400, 200]

    def test_post_with_body_to_missing_route_then_get(self, server):
        """The unread body must never be parsed as the next request — here it
        *is* a well-formed request, so parsing it would answer 200 twice."""
        received, closed = _talk(
            server, _post("/nowhere", GET_HEALTH) + GET_HEALTH
        )
        assert _statuses(received) == [404]
        assert closed

    def test_recovering_tenant_answers_503_and_closes(self, server):
        server.sessions._recovering.add("warm")
        try:
            received, closed = _talk(server, _post("/v1/warm/apply", GET_HEALTH))
        finally:
            server.sessions._recovering.discard("warm")
        assert _statuses(received) == [503]
        assert closed

    def test_consumed_body_keeps_the_connection(self, server):
        received, closed = _talk(
            server, _post(f"/v1/{TENANT}/apply", b"{not json") + GET_HEALTH, 0.5
        )
        assert _statuses(received) == [400, 200]
        assert not closed

    def test_each_response_is_one_write(self, server, api, monkeypatch):
        _seed(api)
        writes = []
        handle_one_request = server_module._Handler.handle_one_request

        class Recorder:
            def __init__(self, raw):
                self.raw = raw

            def write(self, data):
                writes.append(bytes(data))
                return self.raw.write(data)

            def __getattr__(self, name):
                return getattr(self.raw, name)

        def recording(self):
            self.wfile = Recorder(self.wfile)
            try:
                handle_one_request(self)
            finally:
                self.wfile = self.wfile.raw

        monkeypatch.setattr(server_module._Handler, "handle_one_request", recording)
        path = f"/v1/{TENANT}/views/dramas"
        _, _, full = _get(server, path)
        _, _, again = _get(server, path)
        _, _, page = _get(server, path + "?limit=1")
        version = json.loads(full)["version"]
        status, _, empty = _get(server, path, {"If-None-Match": f'"{version}"'})
        missing, _, error = _get(server, f"/v1/{TENANT}/views/nope")
        assert (status, empty, missing) == (304, b"", 404)
        assert len(writes) == 5
        for write, body in zip(writes, [full, again, page, empty, error]):
            head, _, sent = write.partition(b"\r\n\r\n")
            assert sent == body
            assert f"Content-Length: {len(body)}".encode() in head


# --------------------------------------------------------------------------- #
# One connection per client (per thread)
# --------------------------------------------------------------------------- #
class TestPersistentConnection:
    def test_calls_share_one_connection_per_thread(self, server, api):
        accepted = []
        get_request = server._httpd.get_request
        server._httpd.get_request = lambda: accepted.append(1) or get_request()
        for _ in range(5):
            api.get("health")
        api.post(f"v1/{TENANT}/datasets", {"name": "M", "fields": ["a"]})
        assert len(accepted) == 1
        other = threading.Thread(target=lambda: [api.get("health") for _ in range(3)])
        other.start()
        other.join(10.0)
        assert len(accepted) == 2

    def test_idle_connection_is_closed_and_the_client_reconnects(self, monkeypatch):
        monkeypatch.setattr(server_module._Handler, "timeout", 0.2)
        with ReproServer(ServerConfig(port=0)) as server:
            api = APIClient(server.url, max_retries=0)
            api.get("health")
            sock = api._local.connection.sock
            # The handler thread gives up on the silent connection.
            deadline = time.monotonic() + 5.0
            while server._httpd._connections and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not server._httpd._connections
            # With max_retries=0 only the reconnect-once can make this work.
            assert api.get("health")["status"] == "ok"
            assert api._local.connection.sock is not sock
            assert api.retries_performed == 0
            api.close()

    def test_restart_on_the_same_port_is_transparent(self):
        server = ReproServer(ServerConfig(port=0)).start()
        port = server.address[1]
        api = APIClient(server.url, max_retries=0)
        try:
            api.get("health")
            server.close()
            with pytest.raises(APIError) as refused:
                api.get("health")  # reconnected once, nobody listening
            assert refused.value.code == "connection"
            server = ReproServer(ServerConfig(port=port)).start()
            api.get("health")
            server.close()
            server = ReproServer(ServerConfig(port=port)).start()
            # The client still holds the closed server's connection.
            assert api.post(f"v1/{TENANT}/datasets", {"name": "M", "fields": ["a"]})
            assert api.retries_performed == 0
        finally:
            api.close()
            server.close()

    def test_closed_server_stops_answering_open_connections(self, server, api):
        api.get("health")
        sock = api._local.connection.sock
        server.close()
        sock.settimeout(5.0)
        try:
            sock.sendall(GET_HEALTH)
            assert sock.recv(1024) == b""
        except ConnectionError:
            pass


class _Peer:
    """A scripted socket peer: ``script[i]`` says what to do with the i-th
    request head it reads — ``"answer"`` (200, keep-alive), ``"drop"`` (close
    without a byte) or ``"partial"`` (a response cut short inside its body, then close)."""

    ANSWER = b'HTTP/1.1 200 OK\r\nContent-Length: 11\r\n\r\n{"ok":true}'

    def __init__(self, script):
        self.script = list(script)
        self.requests = []
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.url = "http://127.0.0.1:%d" % self.listener.getsockname()[1]
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        while self.script:
            try:
                connection, _ = self.listener.accept()
            except OSError:
                return
            # Both, or the file object keeps the socket open past the close.
            with connection, connection.makefile("rb") as reader:
                while self.script:
                    head = b""
                    for line in reader:
                        head += line
                        if line == b"\r\n":
                            break
                    if not head:
                        break  # the client closed this connection
                    length = 0
                    for line in head.split(b"\r\n"):
                        if line.lower().startswith(b"content-length:"):
                            length = int(line.split(b":")[1])
                    reader.read(length)
                    self.requests.append(head.split(b" ", 1)[0].decode())
                    action = self.script.pop(0)
                    if action == "answer":
                        connection.sendall(self.ANSWER)
                        continue
                    if action == "partial":
                        connection.sendall(self.ANSWER[:-5])
                    break

    def close(self):
        self.listener.close()
        self.thread.join(5.0)


class TestResendOnce:
    def test_post_on_a_dead_reused_connection_is_resent_once(self):
        peer = _Peer(["answer", "drop", "answer"])
        api = APIClient(peer.url, max_retries=0)
        try:
            assert api.get("x") == {"ok": True}
            assert api.post("x", {"a": 1}) == {"ok": True}
            assert peer.requests == ["GET", "POST", "POST"]
            assert api.retries_performed == 0
        finally:
            api.close()
            peer.close()

    def test_second_death_goes_to_the_retry_budget(self):
        peer = _Peer(["answer", "drop", "drop", "answer"])
        naps = []
        api = APIClient(peer.url, max_retries=1, sleep=naps.append)
        try:
            api.get("x")
            assert api.post("x", {"a": 1}) == {"ok": True}
            assert peer.requests == ["GET", "POST", "POST", "POST"]
            assert api.retries_performed == 1 and len(naps) == 1
        finally:
            api.close()
            peer.close()

    def test_post_is_not_resent_once_response_bytes_arrived(self):
        peer = _Peer(["answer", "partial"])
        api = APIClient(peer.url, max_retries=0)
        try:
            api.get("x")
            with pytest.raises(APIError) as info:
                api.post("x", {"a": 1})
            assert info.value.code == "connection"
            assert peer.requests == ["GET", "POST"]
        finally:
            api.close()
            peer.close()

    def test_fresh_connection_gets_no_free_resend(self):
        peer = _Peer(["drop"])
        api = APIClient(peer.url, max_retries=0)
        try:
            with pytest.raises(APIError) as info:
                api.post("x", {"a": 1})
            assert info.value.code == "connection"
            assert peer.requests == ["POST"]
        finally:
            api.close()
            peer.close()
