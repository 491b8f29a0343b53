"""``repro-cli``: serve, inspect and drive an IVM service from the shell.

Modeled on the per-resource-client + table-rendering CLI idiom (an
``APIClient`` shared by resource clients, one sub-command family per
resource, tables for every listing).  Rendering uses :mod:`rich` when the
``[cli]`` extra is installed and a plain-text fallback otherwise, so the
CLI works on a dependency-free interpreter.

Examples::

    repro-cli serve --port 8765 --queue-depth 256
    repro-cli --tenant team-a datasets create M --fields name,gen,dir
    repro-cli --tenant team-a apply --data '{"M": {"rows": [["Drive","Drama","Refn"]]}}'
    repro-cli --tenant team-a views create dramas --query '{"from": "M", ...}'
    repro-cli --tenant team-a views show dramas
    repro-cli --tenant team-a watch dramas --interval 0.5 --count 10
    repro-cli stats

The server URL comes from ``--server`` or ``$REPRO_SERVER``; the tenant
from ``--tenant`` or ``$REPRO_TENANT`` (default ``"default"``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.client._compat import Console, Table
from repro.client.api import APIClient, APIError, DEFAULT_SERVER, DEFAULT_TENANT
from repro.client.resources import (
    DatasetsClient,
    ReplicationClient,
    ServerClient,
    UpdatesClient,
    ViewsClient,
)

__all__ = ["main"]

console = Console()


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _load_json_arg(inline: Optional[str], path: Optional[str], what: str) -> Any:
    if inline is not None and path is not None:
        raise ValueError(f"give {what} inline or as a file, not both")
    if inline is not None:
        return json.loads(inline)
    if path is not None:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    raise ValueError(f"missing {what}")


def _render_cell(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    if isinstance(value, (dict, list)):
        return json.dumps(value)
    return str(value)


def _pairs_table(title: str, payload: Dict[str, Any]) -> Table:
    table = Table(title=title, show_lines=False)
    table.add_column("row")
    table.add_column("multiplicity")
    for element, multiplicity in payload.get("pairs", []):
        table.add_row(_render_cell(element), str(multiplicity))
    return table


# --------------------------------------------------------------------------- #
# Commands
# --------------------------------------------------------------------------- #
def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import ReproServer, ServerConfig

    try:
        # The server validates the durability settings before it listens, so
        # a bad one stops it here rather than failing each tenant later.
        server = ReproServer(
            ServerConfig(
                host=args.host,
                port=args.port,
                queue_depth=args.queue_depth,
                coalesce=args.coalesce,
                quiet=not args.verbose,
                data_dir=args.data_dir,
                fsync=args.fsync,
                replica_of=args.replica_of,
                poll_wait=args.poll_wait,
            )
        )
    except ValueError as error:
        return _fail(str(error))
    server.install_signal_handlers()
    durable = f", durable in {args.data_dir}" if args.data_dir else ""
    following = f", replicating {args.replica_of}" if args.replica_of else ""
    console.print(
        f"repro-serve listening on {server.url} "
        f"(SIGTERM drains and exits{durable}{following})"
    )
    try:
        server.serve_forever()
    except (KeyboardInterrupt, OSError):
        pass
    finally:
        server.close(drain=True)
    console.print("repro-serve: clean shutdown")
    return 0


def _cmd_health(api: APIClient, args: argparse.Namespace) -> int:
    payload = ServerClient(api).health()
    line = (
        f"status={payload['status']} uptime={payload['uptime_seconds']:.1f}s "
        f"tenants={','.join(payload['tenants']) or '-'}"
    )
    recovering = payload.get("recovering") or []
    if recovering:
        line += f" recovering={','.join(recovering)}"
    console.print(line)
    return 0


def _cmd_stats(api: APIClient, args: argparse.Namespace) -> int:
    payload = ServerClient(api).stats()
    server = payload["server"]
    console.print(
        f"{server['url']}  uptime={server['uptime_seconds']:.1f}s "
        f"requests={server['requests_served']}"
    )
    table = Table(title="Tenants", show_lines=False)
    for header in (
        "tenant", "version", "datasets", "views", "queue",
        "accepted", "429s", "batches", "coalesced", "batch ms", "durability",
    ):
        table.add_column(header)
    for name, tenant in sorted(payload["tenants"].items()):
        ingest = tenant["ingest"]
        table.add_row(
            name,
            str(tenant["state_version"]),
            str(tenant["datasets"]),
            str(tenant["views"]),
            f"{tenant['queue_depth']}/{tenant['queue_capacity']}",
            str(ingest["accepted"]),
            str(ingest["rejected_backpressure"]),
            str(ingest["applied_batches"]),
            str(ingest["coalesced_updates"]),
            f"{1000 * ingest['ewma_batch_seconds']:.2f}",
            _render_durability(tenant),
        )
    console.print(table)
    return 0


def _render_durability(tenant: Dict[str, Any]) -> str:
    """``policy@segment`` for a durable tenant, flagged when read-only.

    Older servers (and in-memory tenants) report nothing; render a dash.
    """
    durability = tenant.get("durability")
    if not durability:
        return "-"
    recovery = durability.get("recovery") or {}
    if recovery.get("read_only"):
        return f"{durability['policy']}: READ-ONLY ({recovery.get('reason')})"
    wal = durability.get("wal") or {}
    rendered = str(durability["policy"])
    if wal:
        rendered += f"@seg{wal['segment']}"
    if recovery.get("records_replayed"):
        rendered += f" (+{recovery['records_replayed']} replayed)"
    return rendered


def _cmd_datasets(api: APIClient, args: argparse.Namespace) -> int:
    client = DatasetsClient(api, tenant=args.tenant)
    if args.datasets_command == "list":
        payload = client.list()
        table = Table(title=f"Datasets (version {payload['version']})")
        for header in ("name", "fields", "distinct", "cardinality"):
            table.add_column(header)
        for entry in payload["datasets"]:
            table.add_row(
                entry["name"],
                _render_cell(entry["fields"]),
                str(entry["distinct"]),
                str(entry["cardinality"]),
            )
        console.print(table)
        return 0
    if args.datasets_command == "create":
        fields: List[Any]
        if args.fields_json is not None:
            fields = json.loads(args.fields_json)
        elif args.fields:
            fields = [name.strip() for name in args.fields.split(",") if name.strip()]
        else:
            return _fail("datasets create needs --fields or --fields-json")
        rows = None
        if args.rows is not None or args.rows_file is not None:
            rows = _load_json_arg(args.rows, args.rows_file, "rows")
        payload = client.create(args.name, fields, rows=rows)
        console.print(
            f"created dataset {payload['dataset']!r} (version {payload['version']})"
        )
        return 0
    if args.datasets_command == "show":
        payload = client.show(args.name)
        console.print(
            _pairs_table(
                f"{args.name} (version {payload['version']}, "
                f"{payload['cardinality']} rows)",
                payload,
            )
        )
        return 0
    return _fail(f"unknown datasets command {args.datasets_command!r}")


def _cmd_views(api: APIClient, args: argparse.Namespace) -> int:
    client = ViewsClient(api, tenant=args.tenant)
    if args.views_command == "list":
        payload = client.list()
        table = Table(title=f"Views (version {payload['version']})")
        for header in ("name", "strategy", "execution", "updates", "distinct"):
            table.add_column(header)
        for entry in payload["views"]:
            table.add_row(
                entry["name"],
                entry["strategy"],
                entry["execution"],
                str(entry["updates_applied"]),
                str(entry["distinct"]),
            )
        console.print(table)
        return 0
    if args.views_command == "create":
        query = _load_json_arg(args.query, args.query_file, "query")
        payload = client.create(args.name, query, strategy=args.strategy)
        console.print(
            f"created view {payload['view']!r} "
            f"(strategy={payload['strategy']}, execution={payload['execution']})"
        )
        return 0
    if args.views_command == "show":
        payload = client.show(args.name)
        console.print(
            _pairs_table(
                f"{args.name} (version {payload['version']}, "
                f"strategy {payload['strategy']})",
                payload,
            )
        )
        return 0
    if args.views_command == "explain":
        payload = client.explain(args.name)
        plan = payload["plan"]
        console.print(
            f"view {plan['view']!r}: strategy={plan['strategy']} "
            f"(requested {plan['requested']}), execution={plan['execution']}"
        )
        console.print(f"reason: {plan['reason']}")
        for label, text in plan["artifacts"].items():
            console.print(f"{label}: {text}")
        if args.verbose:
            console.print(json.dumps(plan, indent=2))
        return 0
    if args.views_command == "indexes":
        payload = client.indexes(args.name)
        table = Table(title=f"Indexes (version {payload['version']})")
        for header in ("relation", "key paths", "registered", "entries", "hits"):
            table.add_column(header)
        for entry in payload["indexes"]:
            table.add_row(
                entry["relation"],
                _render_cell(entry["key_paths"]),
                "yes" if entry["registered"] else "no",
                str(entry.get("entries", "-")),
                str(entry.get("hits", "-")),
            )
        console.print(table)
        return 0
    return _fail(f"unknown views command {args.views_command!r}")


def _cmd_apply(api: APIClient, args: argparse.Namespace) -> int:
    update = _load_json_arg(args.data, args.file, "update data")
    updates = update if isinstance(update, list) else [update]
    payload = UpdatesClient(api, tenant=args.tenant).apply(*updates, mode=args.mode)
    if args.mode == "async":
        console.print(
            f"accepted {payload['accepted']} update(s), "
            f"queue depth {payload['queue_depth']}"
        )
    else:
        last = payload["results"][-1]
        console.print(
            f"applied {payload['applied']} update(s), "
            f"version {last['version']} "
            f"(coalesced with {last['batched_with']} other(s))"
        )
    return 0


def _cmd_checkpoint(api: APIClient, args: argparse.Namespace) -> int:
    payload = UpdatesClient(api, tenant=args.tenant).checkpoint()
    console.print(
        f"checkpoint {payload['seq']} at version {payload['state_version']} "
        f"(WAL replay starts at segment {payload['wal_start_segment']})"
    )
    return 0


def _cmd_promote(api: APIClient, args: argparse.Namespace) -> int:
    payload = ReplicationClient(api, tenant=args.tenant).promote(epoch=args.epoch)
    if payload.get("already_primary"):
        console.print(
            f"tenant {payload['tenant']!r} is already primary "
            f"(epoch {payload['epoch']})"
        )
    elif payload.get("reenabled"):
        console.print(
            f"re-enabled writes on primary {payload['tenant']!r} "
            f"(epoch {payload['epoch']}, version {payload['version']})"
        )
    else:
        console.print(
            f"promoted tenant {payload['tenant']!r} to primary at epoch "
            f"{payload['epoch']} (version {payload['version']}); "
            f"the old primary is being fenced"
        )
    return 0


def _cmd_replication(api: APIClient, args: argparse.Namespace) -> int:
    payload = ReplicationClient(api, tenant=args.tenant).status()
    line = (
        f"tenant={payload['tenant']} role={payload['role']} "
        f"epoch={payload['epoch']} version={payload['state_version']}"
    )
    if payload.get("wal_end"):
        segment, offset = payload["wal_end"]
        line += f" wal_end={segment}:{offset}"
    lag = payload.get("replication_lag")
    if lag is not None:
        line += f" lag={lag['records']} records/{lag['bytes']} bytes"
    if payload.get("read_only"):
        line += f" read_only=({payload['read_only']})"
    console.print(line)
    link = payload.get("link")
    if link is not None:
        console.print(
            f"link: upstream={link['upstream']} connected={link['connected']} "
            f"polls={link['polls']} shipped={link['frames_shipped']} frames/"
            f"{link['bytes_shipped']} bytes bootstraps={link['bootstraps']}"
            + (f" last_error=({link['last_error']})" if link["last_error"] else "")
        )
    if args.verbose:
        console.print(json.dumps(payload, indent=2))
    return 0


def _cmd_watch(api: APIClient, args: argparse.Namespace) -> int:
    """Poll with ``If-None-Match``: an unchanged view costs a body-less 304
    (the server never encodes the result), and the table redraws only when
    the version actually advanced."""
    client = ViewsClient(api, tenant=args.tenant)
    version: Optional[int] = None
    remaining = args.count
    while remaining != 0:
        payload = client.show(args.name, etag=version)
        if not payload.get("unchanged"):
            version = payload["version"]
            console.print(
                _pairs_table(f"{args.name} @ version {version}", payload)
            )
        if remaining > 0:
            remaining -= 1
        if remaining != 0:
            time.sleep(args.interval)
    return 0


# --------------------------------------------------------------------------- #
# Parser
# --------------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cli",
        description="Client for the repro IVM service (see docs/serve.md)",
    )
    parser.add_argument(
        "--server",
        default=None,
        help=f"server URL (default: ${DEFAULT_SERVER} or http://127.0.0.1:8765)",
    )
    parser.add_argument(
        "--tenant",
        default=os.environ.get(DEFAULT_TENANT, "default"),
        help=f"tenant name (default: ${DEFAULT_TENANT} or 'default')",
    )
    parser.add_argument("--verbose", action="store_true", help="extra output")
    commands = parser.add_subparsers(dest="command", required=True)

    serve = commands.add_parser("serve", help="run a server in the foreground")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765)
    serve.add_argument("--queue-depth", type=int, default=256)
    serve.add_argument("--coalesce", type=int, default=64)
    serve.add_argument(
        "--data-dir",
        default=None,
        help="durable root: per-tenant WALs + checkpoints, recovered on start",
    )
    serve.add_argument(
        "--fsync",
        choices=("always", "batch", "off"),
        default=None,
        help="WAL fsync policy (default: batch)",
    )
    serve.add_argument(
        "--replica-of",
        default=None,
        metavar="URL",
        help="follow this upstream server's tenants as read-only replicas "
        "(requires --data-dir; see docs/replication.md)",
    )
    serve.add_argument(
        "--poll-wait",
        type=float,
        default=5.0,
        help="replication long-poll duration in seconds (replica mode)",
    )

    commands.add_parser("health", help="server liveness")
    commands.add_parser("stats", help="server + tenant admission statistics")

    datasets = commands.add_parser("datasets", help="manage datasets")
    datasets_commands = datasets.add_subparsers(dest="datasets_command", required=True)
    datasets_commands.add_parser("list", help="list datasets")
    datasets_create = datasets_commands.add_parser("create", help="create a dataset")
    datasets_create.add_argument("name")
    datasets_create.add_argument(
        "--fields", default=None, help="comma-separated base field names"
    )
    datasets_create.add_argument(
        "--fields-json", default=None, help="fields spec as JSON (for nested columns)"
    )
    datasets_create.add_argument("--rows", default=None, help="initial rows as JSON")
    datasets_create.add_argument("--rows-file", default=None)
    datasets_show = datasets_commands.add_parser("show", help="dataset contents")
    datasets_show.add_argument("name")

    views = commands.add_parser("views", help="manage maintained views")
    views_commands = views.add_subparsers(dest="views_command", required=True)
    views_commands.add_parser("list", help="list views")
    views_create = views_commands.add_parser("create", help="create a view")
    views_create.add_argument("name")
    views_create.add_argument("--query", default=None, help="query spec as JSON")
    views_create.add_argument("--query-file", default=None)
    views_create.add_argument("--strategy", default="auto")
    views_show = views_commands.add_parser("show", help="view result")
    views_show.add_argument("name")
    views_explain = views_commands.add_parser("explain", help="maintenance plan")
    views_explain.add_argument("name")
    views_indexes = views_commands.add_parser("indexes", help="live index report")
    views_indexes.add_argument("name")

    apply_parser = commands.add_parser("apply", help="apply updates")
    apply_parser.add_argument("--data", default=None, help="update(s) as JSON")
    apply_parser.add_argument("--file", default=None, help="update(s) from a JSON file")
    apply_parser.add_argument("--mode", choices=("sync", "async"), default="sync")

    commands.add_parser(
        "checkpoint", help="cut a durable snapshot checkpoint for the tenant"
    )

    promote = commands.add_parser(
        "promote", help="promote this endpoint's tenant to writable primary"
    )
    promote.add_argument(
        "--epoch",
        type=int,
        default=None,
        help="explicit fencing epoch (default: past everything observed)",
    )

    commands.add_parser(
        "replication", help="role, epoch and replication lag for the tenant"
    )

    watch = commands.add_parser("watch", help="poll a view, print on change")
    watch.add_argument("name")
    watch.add_argument("--interval", type=float, default=1.0)
    watch.add_argument(
        "--count", type=int, default=-1, help="polls before exiting (-1 = forever)"
    )
    return parser


_COMMANDS = {
    "health": _cmd_health,
    "stats": _cmd_stats,
    "datasets": _cmd_datasets,
    "views": _cmd_views,
    "apply": _cmd_apply,
    "checkpoint": _cmd_checkpoint,
    "promote": _cmd_promote,
    "replication": _cmd_replication,
    "watch": _cmd_watch,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "serve":
        return _cmd_serve(args)
    try:
        api = APIClient(args.server)
    except ValueError as error:
        return _fail(str(error))
    try:
        return _COMMANDS[args.command](api, args)
    except APIError as error:
        return _fail(str(error))
    except (ValueError, KeyError, json.JSONDecodeError) as error:
        return _fail(str(error))
    except KeyboardInterrupt:
        return 130
    finally:
        api.close()


if __name__ == "__main__":
    sys.exit(main())
