"""CI smoke check for the serving layer: boot, drive with the CLI, shut down.

Run as ``python -m repro.serve.smoke``.  It starts a real
:class:`~repro.serve.server.ReproServer` on an ephemeral port, drives it
through the actual ``repro-cli`` entry point (``repro.client.cli.main`` with
explicit ``argv`` — the same code path the console script takes), covering
dataset creation, a flat and a nested view, a synchronous apply, every
read endpoint, and finally asserts a clean drain-and-shutdown:

* the ingest queue is empty and every accepted update was applied,
* the engine is closed (``Engine.close`` ran),
* a post-shutdown request fails with a connection error.

Exits non-zero on any failure, so CI can run it as a step.
"""

from __future__ import annotations

import json
import sys

from repro.client.api import APIClient, APIError
from repro.client.cli import main as cli_main
from repro.serve import ReproServer, ServerConfig

__all__ = ["run_smoke", "main"]

_DRAMAS_QUERY = {
    "from": "M",
    "var": "m",
    "where": ["eq", ["field", "m", "gen"], ["const", "Drama"]],
    "select": [["field", "m", "name"]],
}

_RELATED_QUERY = {
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
                    [
                        "or",
                        ["eq", ["field", "m", "gen"], ["field", "m2", "gen"]],
                        ["eq", ["field", "m", "dir"], ["field", "m2", "dir"]],
                    ],
                ],
                "select": [["field", "m2", "name"]],
            },
        ],
    ],
}


def _cli(url: str, *args: str) -> None:
    rc = cli_main(["--server", url, "--tenant", "smoke", *args])
    if rc != 0:
        raise AssertionError(f"repro-cli {' '.join(args)} exited {rc}")


def run_smoke() -> None:
    server = ReproServer(ServerConfig(port=0)).start()
    url = server.url
    print(f"smoke: serving on {url}")

    _cli(url, "health")
    _cli(
        url,
        "datasets",
        "create",
        "M",
        "--fields",
        "name,gen,dir",
        "--rows",
        json.dumps([["Drive", "Drama", "Refn"], ["Skyfall", "Action", "Mendes"]]),
    )
    _cli(url, "views", "create", "dramas", "--query", json.dumps(_DRAMAS_QUERY))
    _cli(url, "views", "create", "related", "--query", json.dumps(_RELATED_QUERY))
    _cli(
        url,
        "apply",
        "--data",
        json.dumps({"M": {"rows": [["Jarhead", "Drama", "Mendes"]]}}),
    )
    _cli(url, "datasets", "list")
    _cli(url, "views", "show", "dramas")
    _cli(url, "views", "show", "related")
    _cli(url, "views", "explain", "dramas")
    _cli(url, "stats")

    # Direct wire checks on the final state before shutting down.
    api = APIClient(url, max_retries=1)
    shown = api.get("v1/smoke/views/dramas")
    pairs = sorted(tuple(pair) for pair in shown["pairs"])
    if pairs != [("Drive", 1), ("Jarhead", 1)]:
        raise AssertionError(f"unexpected dramas result: {pairs}")
    stats = api.get("stats")["tenants"]["smoke"]
    if stats["queue_depth"] != 0:
        raise AssertionError(f"queue not drained: {stats['queue_depth']}")
    ingest = stats["ingest"]
    if ingest["errors"] or ingest["rejected_backpressure"]:
        raise AssertionError(f"unexpected ingest failures: {ingest}")

    session = server.sessions.get("smoke")
    engine = session.engine
    server.close(drain=True)

    if not engine.closed:
        raise AssertionError("Engine.close did not run on server shutdown")
    if session.worker.is_alive():
        raise AssertionError("ingest worker still alive after shutdown")
    try:
        APIClient(url, max_retries=1).get("health")
    except APIError:
        pass
    else:
        raise AssertionError("server still answering after close()")
    print("smoke: clean shutdown verified")


def main() -> int:
    try:
        run_smoke()
    except AssertionError as error:
        print(f"smoke FAILED: {error}", file=sys.stderr)
        return 1
    print("serve smoke OK")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    sys.exit(main())
