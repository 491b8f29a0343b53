"""CI smoke check for the serving layer: boot, drive with the CLI, shut down.

Run as ``python -m repro.serve.smoke``.  It starts a real
:class:`~repro.serve.server.ReproServer` on an ephemeral port, drives it
through the actual ``repro-cli`` entry point (``repro.client.cli.main`` with
explicit ``argv`` — the same code path the console script takes), covering
dataset creation, a flat and a nested view (``related``, whose served pairs
are checked after an insert that initialises labels through its
genre-or-director join and after a deleting write that retires one), a
synchronous apply, every read endpoint, one rejected write (a row whose ``year`` is a string meets a
``lt`` view: the CLI must exit with the server's 4xx and both views over
that dataset must read as before — the earlier one is restored after the
update already reached it), and finally asserts a clean drain-and-shutdown:

* the ingest queue is empty and every accepted update was applied,
* the engine is closed (``Engine.close`` ran),
* a post-shutdown request fails with a connection error.

Exits non-zero on any failure, so CI can run it as a step.
"""

from __future__ import annotations

import io
import json
import re
import sys
from contextlib import redirect_stderr

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


_YEARS_QUERY = {"from": "Y", "var": "y", "select": [["field", "y", "name"]]}
_CLASSICS_QUERY = {**_YEARS_QUERY, "where": ["lt", ["field", "y", "year"], ["const", 2000]]}


def _cli(url: str, *args: str) -> None:
    rc = cli_main(["--server", url, "--tenant", "smoke", *args])
    if rc != 0:
        raise AssertionError(f"repro-cli {' '.join(args)} exited {rc}")


def _cli_rejected(url: str, *args: str) -> None:
    """Run a CLI command the server must refuse with a 4xx."""
    errors = io.StringIO()
    with redirect_stderr(errors):
        rc = cli_main(["--server", url, "--tenant", "smoke", *args])
    message = errors.getvalue().strip()
    if rc == 0 or not re.search(r"\[4\d\d/", message):
        raise AssertionError(f"repro-cli {' '.join(args)} exited {rc}: {message!r}")
    print(f"smoke: rejected as expected: {message}")


def _expect_related(api: APIClient, expected) -> None:
    """``related`` as served: movie → sorted related names (each once)."""
    served = {}
    for (name, inner), multiplicity in api.get("v1/smoke/views/related")["pairs"]:
        names = sorted(related for related, _ in inner["bag"])
        if multiplicity != 1 or any(count != 1 for _, count in inner["bag"]):
            raise AssertionError(f"unexpected multiplicities in related: {name} -> {inner}")
        served[name] = names
    if served != expected:
        raise AssertionError(f"unexpected related result: {served}, want {expected}")


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
    # Jarhead's insert initialises its label and rewrites Drive's (same
    # genre) and Skyfall's (same director) through the genre-or-director join.
    api = APIClient(url, max_retries=1)
    _expect_related(
        api, {"Drive": ["Jarhead"], "Skyfall": ["Jarhead"], "Jarhead": ["Drive", "Skyfall"]}
    )
    # A deleting write retires Skyfall's label and takes it out of Jarhead's.
    skyfall = [["Skyfall", "Action", "Mendes"], -1]
    _cli(url, "apply", "--data", json.dumps({"M": {"pairs": [skyfall]}}))
    _expect_related(api, {"Drive": ["Jarhead"], "Jarhead": ["Drive"]})

    # One rejected write: "years" refreshes first and holds the row by the
    # time "classics" compares "1998" < 2000; the engine must restore it.
    _cli(
        url,
        "datasets",
        "create",
        "Y",
        "--fields",
        "name,year",
        "--rows",
        json.dumps([["Drive", 2011], ["Heat", 1995]]),
    )
    _cli(url, "views", "create", "years", "--query", json.dumps(_YEARS_QUERY))
    _cli(url, "views", "create", "classics", "--query", json.dumps(_CLASSICS_QUERY))
    before = {name: api.get(f"v1/smoke/views/{name}") for name in ("years", "classics")}
    _cli_rejected(url, "apply", "--data", json.dumps({"Y": {"rows": [["Ronin", "1998"]]}}))
    _cli(url, "views", "show", "classics")
    after = {name: api.get(f"v1/smoke/views/{name}") for name in ("years", "classics")}
    if after != before:
        raise AssertionError(f"rejected write changed the views: {before} -> {after}")
    _cli(url, "stats")

    # Direct wire checks on the final state before shutting down.
    shown = api.get("v1/smoke/views/dramas")
    pairs = sorted(tuple(pair) for pair in shown["pairs"])
    if pairs != [("Drive", 1), ("Jarhead", 1)]:
        raise AssertionError(f"unexpected dramas result: {pairs}")
    stats = api.get("stats")["tenants"]["smoke"]
    if stats["queue_depth"] != 0:
        raise AssertionError(f"queue not drained: {stats['queue_depth']}")
    ingest = stats["ingest"]
    if ingest["errors"] != 1 or ingest["rejected_backpressure"]:
        raise AssertionError(f"expected exactly the one rejected write: {ingest}")

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
