"""The serve wire path: one body per published version, one connection per
client, request heads read by the server's own HTTP/1.1 reader, and request
bodies that cannot desynchronise a persistent connection.

The cache tests compare what the server sends with the payload built the
long way from the pinned snapshot; the connection and head tests talk to
the server over raw sockets (to see exactly which bytes come back on one
connection) and drive :class:`~repro.client.api.APIClient` against a
scripted socket peer (to see exactly which requests it sends, and how
often).  ``http.client`` stays the reference client of these tests.
"""

from __future__ import annotations

import http.client
import json
import re
import socket
import sys
import threading
import time
from http import HTTPStatus

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bag import Bag
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


@pytest.fixture(scope="module", params=["memory", "durable"])
def either_server(request, tmp_path_factory):
    """One in-memory and one durable server, each shared by a module's rows."""
    durable = request.param == "durable"
    data_dir = str(tmp_path_factory.mktemp("wire")) if durable else None
    with ReproServer(ServerConfig(port=0, data_dir=data_dir)) as instance:
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

    def test_pages_of_one_version_count_the_bag_once(self, server, api, monkeypatch):
        """A page's whole-bag ``distinct`` / ``cardinality`` come from the
        pinned snapshot's ``counts``: the first read of a version counts the
        bag, later pages of that version only walk their own pairs."""
        _seed(api)
        path = f"/v1/{TENANT}/views/dramas"
        want = {  # json round trip: the wire has lists where the encoder has tuples
            (limit, offset): json.loads(
                json.dumps(_expected(server, "views/dramas", limit, offset))
            )
            for limit, offset in [(2, 0), (2, 2), (3, 1)]
        }
        counted = []
        cardinality = Bag.cardinality
        monkeypatch.setattr(
            Bag, "cardinality", lambda bag: counted.append(1) or cardinality(bag)
        )
        bodies = {}
        for limit, offset in [(2, 0), (2, 2), (3, 1), (2, 2)]:
            _, _, body = _get(server, f"{path}?limit={limit}&offset={offset}")
            assert json.loads(body) == want[limit, offset]
            assert bodies.setdefault((limit, offset), body) == body
            assert len(counted) == 1
        _get(server, path)  # the full read shares the version's counts
        _get(server, f"/v1/{TENANT}/snapshot?limit=1")
        assert len(counted) == 3  # the snapshot's other bags: M and related
        # The next version counts afresh.
        UpdatesClient(api).insert("M", [["new", "Drama", "d9"]])
        counted.clear()
        _get(server, f"{path}?limit=2")
        _get(server, f"{path}?limit=2&offset=2")
        assert len(counted) == 1

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

    @pytest.mark.parametrize("resource", RESOURCES)
    def test_page_above_the_bound_is_413(self, server, api, resource, monkeypatch):
        """A page is encoded per request, so ``?limit=`` is bounded: above
        ``MAX_PAGE_ROWS`` it is refused, at the bound it is served."""
        _seed(api)
        bound = server_module.MAX_PAGE_ROWS
        assert _get(server, f"/v1/{TENANT}/{resource}?limit={bound + 1}")[0] == 413
        monkeypatch.setattr(server_module, "MAX_PAGE_ROWS", 5)
        status, _, body = _get(server, f"/v1/{TENANT}/{resource}?limit=6")
        assert status == 413
        error = json.loads(body)["error"]
        assert error["code"] == "too_large" and "5-row page bound" in error["message"]
        status, _, body = _get(server, f"/v1/{TENANT}/{resource}?limit=5&offset=1")
        assert status == 200
        assert json.loads(body) == _expected(server, resource, 5, 1)
        # The un-paged read stays the way to read everything.
        status, _, body = _get(server, f"/v1/{TENANT}/{resource}")
        assert status == 200
        assert json.loads(body) == _expected(server, resource)

    def test_deeply_nested_body_is_400(self, server):
        """Nesting past the recursion limit makes ``json.loads`` raise
        ``RecursionError``, not ``JSONDecodeError``: still the client's fault."""
        body = b"[" * 200_000 + b"]" * 200_000
        received, closed = _talk(
            server, _post(f"/v1/{TENANT}/apply", body) + GET_HEALTH, 0.5
        )
        assert _statuses(received) == [400, 200]
        assert b'"bad_request"' in received and b"nests too deeply" in received
        assert not closed

    @pytest.mark.parametrize("levels, status", [(120, 400), (64, 201)])
    def test_view_spec_nest_depth_is_bounded(self, server, api, levels, status):
        """A nest chain past the bound is refused before the engine sees it
        (120 levels used to exhaust the stack: 500); one at the bound is
        created, and the tenant keeps serving either way."""
        DatasetsClient(api).create("M", fields=["name", "gen", "dir"], rows=[["a", "b", "c"]])
        spec = {"from": "M", "var": f"v{levels}", "select": [["field", f"v{levels}", "name"]]}
        for level in reversed(range(levels)):
            spec = {"from": "M", "var": f"v{level}", "select": [["nest", spec]]}
        body = json.dumps({"name": "deep", "query": spec, "strategy": "nested"})
        connection = http.client.HTTPConnection(*server.address, timeout=60)
        try:
            connection.request("POST", f"/v1/{TENANT}/views", body=body)
            response = connection.getresponse()
            payload = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == status
        if status == 400:
            assert payload["error"]["code"] == "bad_request"
            assert "deeper than 64" in payload["error"]["message"]
        names = [view["name"] for view in ViewsClient(api).list()["views"]]
        assert names == (["deep"] if status == 201 else [])
        UpdatesClient(api).insert("M", [["d", "e", "f"]])

    def test_vacuum_route_is_gone(self, server, api):
        """Writes retire dead state themselves: there is no operator pass."""
        with pytest.raises(APIError) as info:
            api.post(f"/v1/{TENANT}/vacuum")
        assert (info.value.status, info.value.code) == (404, "not_found")

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

    @pytest.mark.parametrize(
        "method, path, body",
        [
            ("POST", f"/v1/{TENANT}/demote", b'{"epoch": "x"}'),
            ("POST", f"/v1/{TENANT}/promote", b'{"epoch": "x"}'),
            ("POST", f"/v1/{TENANT}/demote", b'{"epoch": 1e309}'),
            ("POST", f"/v1/{TENANT}/demote", b'{"epoch": null}'),
            ("POST", f"/v1/{TENANT}/demote", b'{"epoch": [1]}'),
            ("POST", f"/v1/{TENANT}/promote", b'{"epoch": [1]}'),
            ("POST", f"/v1/{TENANT}/demote", b'{"epoch": true}'),
            ("POST", f"/v1/{TENANT}/promote", b'{"epoch": true}'),
            ("POST", f"/v1/{TENANT}/demote", b'{"epoch": 1.9}'),
            ("POST", f"/v1/{TENANT}/promote", b'{"epoch": 1.9}'),
            pytest.param("GET", f"/v1/{'a' * 300}/views", None, id="long-tenant-name"),
        ],
    )
    def test_malformed_request_is_400_not_500(self, either_server, method, path, body):
        """Each row used to answer 500 (or, for ``true`` and ``1.9``, take
        the epoch as 1): ``int()`` on a non-integer epoch, and a durable
        server making an over-long tenant name a directory name."""
        connection = http.client.HTTPConnection(*either_server.address, timeout=10)
        try:
            connection.request(method, path, body=body)
            response = connection.getresponse()
            payload = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 400
        assert payload["error"]["code"] == "bad_request"
        session = either_server.sessions.get(TENANT)
        assert (session.role, session.engine.replication_epoch) == ("primary", 0)

    def test_incomparable_row_is_a_4xx_and_the_view_stands(self, either_server):
        """A well-formed write whose row makes an ordered comparison raise
        (``"1999" < 2000``) used to answer 500 ``internal``; the engine now
        rejects it as an evaluation error, and the earlier-registered view
        the update already reached is restored before the answer goes out."""
        api = APIClient(either_server.url, max_retries=0)
        tenant = "mixed"
        all_spec = {"from": "Y", "var": "m", "select": [["field", "m", "name"]]}
        old_spec = {**all_spec, "where": ["lt", ["field", "m", "year"], ["const", 2000]]}
        try:
            DatasetsClient(api, tenant=tenant).create(
                "Y", fields=["name", "year"], rows=[["a", 1990], ["b", 2005]]
            )
            views = ViewsClient(api, tenant=tenant)
            views.create("all", all_spec, strategy="classic")
            views.create("old", old_spec, strategy="classic")
            before = {name: views.show(name) for name in ("all", "old")}
            with pytest.raises(APIError) as caught:
                UpdatesClient(api, tenant=tenant).insert("Y", [["c", "1999"]])
            assert caught.value.status == 400
            assert caught.value.code == "engine_error"
            assert {name: views.show(name) for name in ("all", "old")} == before
            UpdatesClient(api, tenant=tenant).insert("Y", [["d", 1995]])
            assert sorted(pair[0] for pair in views.show("all")["pairs"]) == ["a", "b", "d"]
            assert sorted(pair[0] for pair in views.show("old")["pairs"]) == ["a", "d"]
        finally:
            api.close()

    def test_tenant_name_length_bound_is_the_same_on_every_server(self, either_server):
        statuses = []
        for length in (128, 129):
            status, _, _ = _get(either_server, f"/v1/{'t' * length}/views")
            statuses.append(status)
        assert statuses == [200, 400]

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
# Request heads: the server's own HTTP/1.1 reader
# --------------------------------------------------------------------------- #
def _responses(received):
    """Split the bytes of one connection into (status, headers, body)
    responses, walking ``Content-Length`` (never searching bodies, which
    may quote the request)."""
    responses = []
    while received:
        head, _, received = received.partition(b"\r\n\r\n")
        status_line, *lines = head.decode("iso-8859-1").split("\r\n")
        version, status, _ = status_line.split(" ", 2)
        assert version == "HTTP/1.1"
        headers = {}
        for line in lines:
            name, _, value = line.partition(":")
            headers[name.lower()] = value.strip()
        length = int(headers.get("content-length", 0))
        responses.append((int(status), headers, received[:length]))
        received = received[length:]
    return responses


def _head(request_line, *header_lines):
    return "\r\n".join([request_line, *header_lines, "", ""]).encode("iso-8859-1")


def _healthy(server):
    status, _, body = _get(server, "/health")
    assert status == 200 and json.loads(body)["status"] == "ok"


class TestRequestHead:
    """One case per rule of the head reader, each on its own connection;
    every refusal closes that connection and leaves the server serving."""

    @pytest.mark.parametrize(
        "data, status",
        [
            pytest.param(b"GET /health\r\n\r\n", 400, id="two-word-line"),
            pytest.param(b"GET\r\n\r\n", 400, id="one-word-line"),
            pytest.param(b"GET /health HTTP/1.1 x\r\n\r\n", 400, id="four-word-line"),
            pytest.param(_head("GET /health HTTP/1"), 400, id="version-no-minor"),
            pytest.param(_head("GET /health HTTP/1.1.1"), 400, id="version-three-parts"),
            pytest.param(_head("GET /health HTTP/x.1"), 400, id="version-not-a-number"),
            pytest.param(_head("GET /health HTTP/\xb2.1"), 400, id="version-superscript"),
            pytest.param(_head("GET /health FTP/1.1"), 400, id="version-not-http"),
            pytest.param(_head("GET /health HTTP/2.0"), 505, id="http-2.0"),
            pytest.param(_head("GET /health HTTP/3.1"), 505, id="http-3.1"),
            pytest.param(_head("GET /health HTTP/1.1", "Host t"), 400, id="no-colon"),
            pytest.param(_head("GET /health HTTP/1.1", ": t"), 400, id="empty-name"),
            pytest.param(
                _head("GET /health HTTP/1.1", "Host : t"), 400, id="space-before-colon"
            ),
            pytest.param(
                _head("GET /health HTTP/1.1", "X-A: 1", " X-B: 2"), 400, id="obs-fold"
            ),
            pytest.param(
                _head(f"POST /v1/{TENANT}/apply HTTP/1.1", "Content-Length: 2",
                      "Content-Length: 3"),
                400,
                id="conflicting-content-length",
            ),
            pytest.param(
                _head("GET /health HTTP/1.1", *[f"X-{i}: {i}" for i in range(101)]),
                431,
                id="101-headers",
            ),
            pytest.param(
                _head("GET /health HTTP/1.1", "X-Big: " + "a" * 65536),
                431,
                id="long-header-line",
            ),
            pytest.param(
                _head("GET /" + "a" * 65536 + " HTTP/1.1"), 414, id="long-request-line"
            ),
            pytest.param(_head("PUT /health HTTP/1.1"), 405, id="unknown-method"),
            pytest.param(_head("HEAD /health HTTP/1.1"), 405, id="head-method"),
        ],
    )
    def test_refused_head_answers_and_closes(self, server, data, status):
        received, closed = _talk(server, data + GET_HEALTH)
        ((answered, headers, body),) = _responses(received)
        assert answered == status and closed
        assert headers["connection"] == "close"
        assert json.loads(body)["error"]["code"] == HTTPStatus(status).name.lower()
        _healthy(server)

    def test_at_the_bounds_the_head_is_read(self, server):
        data = _head(
            "GET /health HTTP/1.1",
            "Host:\tt",
            *[f"X-{i}: {i}" for i in range(98)],
            "X-Big: " + "a" * (65536 - len("X-Big: \r\n")),
        )
        received, closed = _talk(server, data + GET_HEALTH, 0.5)
        assert [status for status, _, _ in _responses(received)] == [200, 200]
        assert not closed

    def test_empty_request_line_closes_silently(self, server):
        received, closed = _talk(server, b"\r\n" + GET_HEALTH)
        assert (received, closed) == (b"", True)
        _healthy(server)

    @pytest.mark.parametrize(
        "version, connection, closes",
        [
            ("HTTP/1.1", None, False),
            ("HTTP/1.1", "close", True),
            ("HTTP/1.1", "Keep-Alive", False),
            ("HTTP/1.0", None, True),
            ("HTTP/1.0", "keep-alive", False),
            ("HTTP/1.0", "CLOSE", True),
        ],
    )
    def test_connection_persistence(self, server, version, connection, closes):
        lines = ["Host: t"] + ([f"Connection: {connection}"] if connection else [])
        received, closed = _talk(server, _head(f"GET /health {version}", *lines), 0.5)
        ((status, headers, _),) = _responses(received)
        assert status == 200 and closed == closes
        assert headers["date"].endswith(" GMT")

    def test_header_names_are_case_insensitive(self, server, api):
        _seed(api)
        path = f"/v1/{TENANT}/views/dramas"
        _, headers, _ = _get(server, path)
        received, _ = _talk(
            server,
            _head(f"GET {path} HTTP/1.1", "host: t", f"if-none-match: {headers['ETag']}")
            + _head(f"GET {path} HTTP/1.1", f"IF-NONE-MATCH: {headers['ETag']}"),
            0.5,
        )
        assert [(status, body) for status, _, body in _responses(received)] == [
            (304, b""),
            (304, b""),
        ]

    def test_repeated_equal_content_length_is_one_length(self, server):
        body = b'{"name": "M", "fields": ["a"]}'
        data = _head(
            f"POST /v1/{TENANT}/datasets HTTP/1.1",
            f"Content-Length: {len(body)}",
            f"content-length: {len(body)}",
        )
        received, closed = _talk(server, data + body + GET_HEALTH, 0.5)
        assert [status for status, _, _ in _responses(received)] == [201, 200]
        assert not closed

    def test_expect_100_continue_post(self, server):
        body = b'{"name": "M", "fields": ["a"]}'
        with socket.create_connection(server.address, timeout=5.0) as sock:
            sock.sendall(
                _head(
                    f"POST /v1/{TENANT}/datasets HTTP/1.1",
                    "Host: t",
                    "Expect: 100-continue",
                    f"Content-Length: {len(body)}",
                )
            )
            interim = b""
            while not interim.endswith(b"\r\n\r\n"):
                interim += sock.recv(1)
            # The body goes only once the server asked for it.
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body + GET_HEALTH)
            received = b""
            while received.count(b"HTTP/1.1 ") < 2 or not received.endswith(b"}"):
                received += sock.recv(65536)
        ((created, _, payload), (health, _, _)) = _responses(received)
        assert (created, health) == (201, 200)
        assert json.loads(payload)["dataset"] == "M"

    def test_transfer_encoding_request_closes_after_the_answer(self, server):
        data = _head(
            f"POST /v1/{TENANT}/apply HTTP/1.1", "Transfer-Encoding: chunked"
        ) + b"5\r\nhello\r\n0\r\n\r\n"
        received, closed = _talk(server, data + GET_HEALTH)
        ((status, headers, _),) = _responses(received)
        assert status == 400 and headers["connection"] == "close" and closed


#: Fuzzed request heads: a request line from methods, routes and versions
#: (2.x versions excepted — their 505 is pinned above), header lines from
#: well-formed, broken and junk ones, and junk bytes after the head.
_ROUTES = [
    "/health",
    "/stats",
    f"/v1/{TENANT}/views",
    f"/v1/{TENANT}/views/dramas?limit=2",
    f"/v1/{TENANT}/datasets",
    f"/v1/{TENANT}/datasets/M",
    f"/v1/{TENANT}/snapshot?offset=x",
    f"/v1/{TENANT}/apply",
    f"/v1/{TENANT}/wal?wait=0",
    "//health",
    "/v1/",
    "*",
]
_TOKEN = st.text(
    st.characters(min_codepoint=33, max_codepoint=255, blacklist_characters=":"),
    min_size=1,
    max_size=12,
)
_REQUEST_LINE = st.one_of(
    st.tuples(
        st.sampled_from(["GET", "POST", "PUT", "DELETE", "HEAD", "get", "OPTIONS"]) | _TOKEN,
        st.sampled_from(_ROUTES) | _TOKEN,
        st.sampled_from(["HTTP/1.1", "HTTP/1.0", "HTTP/0.9", "HTTP/1", "http/1.1"]) | _TOKEN,
    ).map(" ".join),
    st.text(st.characters(min_codepoint=1, max_codepoint=255, blacklist_characters="\r\n"),
            max_size=40),
)
_HEADER_LINE = st.one_of(
    st.tuples(
        st.sampled_from(
            ["Host", "Content-Length", "content-length", "Connection", "Expect",
             "If-None-Match", "Transfer-Encoding", "X-Junk"]
        ) | _TOKEN,
        st.sampled_from(["", "0", "5", "-1", "close", "keep-alive", "100-continue",
                         '"1"', "*", "chunked"]) | _TOKEN,
    ).map(lambda pair: f"{pair[0]}: {pair[1]}"),
    st.text(st.characters(min_codepoint=1, max_codepoint=255, blacklist_characters="\r\n"),
            max_size=30),
)


class TestRequestHeadFuzz:
    def test_no_head_gets_a_5xx_or_breaks_the_server(self, server, api, monkeypatch):
        _seed(api)
        crashes = []  # a handler that raised hangs up silently: catch it here
        monkeypatch.setattr(
            server._httpd, "handle_error", lambda request, address: crashes.append(
                sys.exc_info()[1]
            )
        )

        @settings(
            max_examples=150,
            deadline=None,
            suppress_health_check=[HealthCheck.function_scoped_fixture],
        )
        @given(
            request_line=_REQUEST_LINE,
            header_lines=st.lists(_HEADER_LINE, max_size=6),
            junk=st.binary(max_size=40),
        )
        def check(request_line, header_lines, junk):
            data = _head(request_line, *header_lines) + junk
            received = b""
            with socket.create_connection(server.address, timeout=10.0) as sock:
                sock.sendall(data)
                sock.shutdown(socket.SHUT_WR)  # no body beyond these bytes
                try:
                    while chunk := sock.recv(65536):
                        received += chunk
                except ConnectionResetError:
                    pass  # closed with our junk still unread
            for status, _, _ in _responses(received):
                assert 100 <= status < 500, (data, received)
            _healthy(server)
            assert not crashes, (data, crashes)

        check()


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
    without a byte), ``"partial"`` (a response cut short inside its body,
    then close), or one of :data:`CLOSING` (that response, then close)."""

    ANSWER = b'HTTP/1.1 200 OK\r\nContent-Length: 11\r\n\r\n{"ok":true}'
    CLOSING = {
        "close": b'HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 11\r\n\r\n'
        b'{"ok":true}',
        "unsized": b'HTTP/1.1 200 OK\r\n\r\n{"ok":true}',
        "chunked": b'HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n'
        b'b\r\n{"ok":true}\r\n0\r\n\r\n',
        "conflicting": b"HTTP/1.1 200 OK\r\nContent-Length: 11\r\nContent-Length: 12\r\n"
        b'\r\n{"ok":true}',
    }

    def __init__(self, script):
        self.script = list(script)
        self.requests = []
        self.heads = []  # every request head, as sent
        self.connections = 0
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
            self.connections += 1
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
                    self.heads.append(head)
                    self.requests.append(head.split(b" ", 1)[0].decode())
                    action = self.script.pop(0)
                    if action == "answer":
                        connection.sendall(self.ANSWER)
                        continue
                    if action == "partial":
                        connection.sendall(self.ANSWER[:-5])
                    connection.sendall(self.CLOSING.get(action, b""))
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


class TestTransport:
    def test_connection_close_reconnects_outside_the_retry_budget(self):
        peer = _Peer(["close", "answer"])
        api = APIClient(peer.url, max_retries=0)
        try:
            assert api.get("x") == {"ok": True}
            assert api._local.connection.sock is None  # closed after the body
            assert api.get("x") == {"ok": True}
            assert (peer.requests, peer.connections) == (["GET", "GET"], 2)
            assert api.retries_performed == 0
        finally:
            api.close()
            peer.close()

    @pytest.mark.parametrize("framing", ["unsized", "chunked", "conflicting"])
    def test_unframed_response_is_a_connection_error_and_not_resent(self, framing):
        peer = _Peer(["answer", framing])
        api = APIClient(peer.url, max_retries=0)
        try:
            api.get("x")
            with pytest.raises(APIError) as info:
                api.post("x", {"a": 1})  # on the reused connection
            assert info.value.code == "connection"
            assert peer.requests == ["GET", "POST"]
        finally:
            api.close()
            peer.close()

    def test_request_head_carries_host_and_length(self):
        peer = _Peer(["answer", "answer"])
        api = APIClient(peer.url + "/base", max_retries=0)
        port = peer.url.rsplit(":", 1)[1]
        try:
            api.get("x", headers={"If-None-Match": '"3"'})
            api.post("y", {"a": 1})
        finally:
            api.close()
            peer.close()
        get, post = (head.decode().split("\r\n") for head in peer.heads)
        assert get[0] == "GET /base/x HTTP/1.1"
        assert f"Host: 127.0.0.1:{port}" in get and 'If-None-Match: "3"' in get
        assert not any(line.startswith("Content-Length") for line in get)
        assert post[0] == "POST /base/y HTTP/1.1"
        assert f"Content-Length: {len(json.dumps({'a': 1}))}" in post

    def test_header_with_a_line_break_is_refused(self):
        api = APIClient("http://127.0.0.1:1", max_retries=0)
        with pytest.raises(ValueError):
            api.get("x", headers={"X-A": "1\r\nX-B: 2"})

    @pytest.mark.parametrize(
        "target",
        [
            "v1/t/views/x\r\nGET /health HTTP/1.1",
            "v1/t/views/a b",
            "v1/t/views/x\x7f",
            "v1/t/views/x\x00",
            "v1/t/views/\u00e9",
        ],
    )
    def test_target_that_would_break_the_request_line_is_refused(self, target):
        peer = _Peer(["answer", "answer"])
        api = APIClient(peer.url, max_retries=0)
        try:
            api.get("x")
            with pytest.raises(ValueError):
                api.get(target)  # nothing sent on the kept-alive socket
            assert api.get("y") == {"ok": True}
        finally:
            api.close()
            peer.close()
        assert [head.split(b"\r\n", 1)[0] for head in peer.heads] == [
            b"GET /x HTTP/1.1",
            b"GET /y HTTP/1.1",
        ]

    @pytest.mark.parametrize(
        "url", ["https://127.0.0.1:8765", "ftp://127.0.0.1", "127.0.0.1:8765", "http://"]
    )
    def test_only_http_urls_are_accepted(self, url):
        with pytest.raises(ValueError):
            APIClient(url)
