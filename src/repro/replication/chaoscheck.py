"""``python -m repro.replication.chaoscheck``: the replication chaos battery.

The replication analogue of :mod:`repro.durability.faultcheck`.  For every
maintenance strategy (naive / classic / recursive / nested) and every
chaos scenario, this module

1. stands up a real primary/replica HTTP pair (two in-process
   :class:`~repro.serve.ReproServer` instances over temp data dirs, the
   replica following the primary with ``replica_of``);
2. drives the movie workload over the wire — a dataset, one
   pinned-strategy view, and a batched update stream with deletions —
   recording every **acknowledged** operation in order;
3. injects the scenario's chaos mid-stream: killing the primary,
   partitioning the subscriber link, promoting twice, or crashing the
   replica between the mirror append and the engine apply (and restarting
   it from its own mirror);
4. promotes the replica and requires its state to be **exactly the
   acknowledged prefix**: the promoted engine's ``state_version`` selects
   a prefix of the acked op log, an in-memory reference server replays
   that prefix over the same wire path, and the two engines must be
   indistinguishable (:func:`~repro.durability.faults.state_differences`);
5. asserts the fencing contract: once a higher epoch exists, the demoted
   primary never acknowledges another write (it answers 503), and a stale
   demote is refused with 409.

Where both sides stay alive, the battery additionally checks the byte
contract of log shipping — every replica WAL segment is a byte-for-byte
prefix of the primary segment with the same number.

Exit status 0 when every cell holds, 1 with a per-cell report otherwise.
CI runs this as its replication leg next to the crash-recovery
``faultcheck`` leg; see ``docs/replication.md``.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.client.api import APIClient, APIError
from repro.durability.faults import engine_state, state_differences
from repro.durability.wal import list_segments, resolve_fsync_policy
from repro.engine import STRATEGIES
from repro.workloads.movies import generate_movies, movie_update_stream

__all__ = ["CHAOS_SCENARIOS", "main", "run_battery"]

CHAOS_SCENARIOS = (
    "primary_kill",
    "subscriber_partition",
    "double_promotion",
    "replica_crash_mid_apply",
)

#: Wire query specs per strategy.  The JSON spec language only expresses
#: comprehensions over one dataset, so the flat strategies get the dramas
#: filter and the nest-capable ones the related query of Example 1.
_FILTER_SPEC = {
    "from": "M",
    "var": "m",
    "where": ["eq", ["field", "m", "gen"], ["const", "Drama"]],
    "select": [["field", "m", "name"]],
}
_NEST_SPEC = {
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


def _spec_for(strategy: str) -> Dict[str, Any]:
    return _NEST_SPEC if strategy in ("naive", "nested") else _FILTER_SPEC


def build_wire_ops(strategy: str, movies: int, updates: int) -> List[Tuple[str, Dict[str, Any]]]:
    """One cell's workload as ``(endpoint, body)`` wire operations.

    Every op advances ``state_version`` by exactly one on whatever engine
    acknowledges it, so a promoted replica's version directly selects the
    acked prefix it must equal.
    """
    rows = generate_movies(movies)
    ops: List[Tuple[str, Dict[str, Any]]] = [
        (
            "datasets",
            {
                "name": "M",
                "fields": ["name", "gen", "dir"],
                "rows": [list(row) for row in rows.elements()],
            },
        ),
        (
            "views",
            {
                "name": f"{strategy}_view",
                "query": _spec_for(strategy),
                "strategy": strategy,
            },
        ),
    ]
    stream = movie_update_stream(
        updates, batch_size=3, existing=rows, deletion_ratio=0.25
    )
    for update in stream:
        wire = {
            relation: {"pairs": [[list(row), mult] for row, mult in bag.items()]}
            for relation, bag in update.relations.items()
        }
        ops.append(("apply", {"updates": [wire], "mode": "sync"}))
    return ops


def _apply_op(api: APIClient, tenant: str, op: Tuple[str, Dict[str, Any]]) -> None:
    endpoint, body = op
    api.post(f"v1/{tenant}/{endpoint}", body)


def _wait_until(
    predicate: Callable[[], bool], timeout: float, what: str
) -> Optional[str]:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return None
        time.sleep(0.02)
    return f"timed out after {timeout:g}s waiting for {what}"


class _Cell:
    """One strategy × scenario run: a live primary/replica pair."""

    def __init__(self, strategy: str, fsync: str, tenant: str = "default") -> None:
        from repro.serve import ReproServer, ServerConfig

        self.strategy = strategy
        self.tenant = tenant
        self.tmp = tempfile.TemporaryDirectory(prefix="repro-chaoscheck-")
        self.primary_dir = os.path.join(self.tmp.name, "primary")
        self.replica_dir = os.path.join(self.tmp.name, "replica")
        self._config = dict(host="127.0.0.1", port=0, quiet=True, fsync=fsync)
        self.primary = ReproServer(
            ServerConfig(data_dir=self.primary_dir, **self._config)
        ).start()
        self.replica = ReproServer(
            ServerConfig(
                data_dir=self.replica_dir,
                replica_of=self.primary.url,
                poll_wait=0.5,
                poll_interval=0.01,
                **self._config,
            )
        ).start()
        self.api = APIClient(self.primary.url, max_retries=1, sleep=lambda _: None)
        #: Ops the primary acknowledged, in acknowledgement order.
        self.acked: List[Tuple[str, Dict[str, Any]]] = []

    # -- drive ---------------------------------------------------------- #
    def apply_acked(self, ops: Sequence[Tuple[str, Dict[str, Any]]]) -> None:
        for op in ops:
            _apply_op(self.api, self.tenant, op)
            self.acked.append(op)

    def replica_session(self):
        return self.replica.sessions.get(self.tenant)

    def wait_converged(self, timeout: float = 15.0) -> Optional[str]:
        target = len(self.acked)

        def _caught_up() -> bool:
            from repro.serve.sessions import TenantRecoveringError

            try:
                status = self.replica_session().replication_status()
            except TenantRecoveringError:
                return False
            lag = status.get("replication_lag") or {}
            return status["state_version"] >= target and lag.get("records") == 0

        return _wait_until(
            _caught_up, timeout, f"replica to reach version {target} with lag 0"
        )

    # -- chaos ---------------------------------------------------------- #
    def kill_primary(self) -> None:
        """Tear the primary down without draining — subscribers just see
        connection errors, like a killed process would produce."""
        self.primary.close(drain=False)

    def restart_replica(self) -> None:
        """Crash-restart the replica server over the same data dir."""
        from repro.serve import ReproServer, ServerConfig

        self.replica.close(drain=False)
        self.replica = ReproServer(
            ServerConfig(
                data_dir=self.replica_dir,
                replica_of=self.primary.url,
                poll_wait=0.5,
                poll_interval=0.01,
                **self._config,
            )
        ).start()

    def promote_replica(self, *, epoch: Optional[int] = None) -> Dict[str, Any]:
        client = APIClient(self.replica.url, max_retries=1, sleep=lambda _: None)
        body: Dict[str, Any] = {} if epoch is None else {"epoch": epoch}
        return client.post(f"v1/{self.tenant}/promote", body)

    # -- checks --------------------------------------------------------- #
    def mirror_prefix_problems(self) -> List[str]:
        """Every replica WAL segment must be a byte prefix of the primary's."""
        problems: List[str] = []
        primary_wal = os.path.join(self.primary_dir, self.tenant, "wal")
        replica_wal = os.path.join(self.replica_dir, self.tenant, "wal")
        upstream = dict(list_segments(primary_wal))
        for number, path in list_segments(replica_wal):
            if number not in upstream:
                problems.append(f"replica has segment {number} the primary lacks")
                continue
            with open(path, "rb") as handle:
                mirrored = handle.read()
            with open(upstream[number], "rb") as handle:
                original = handle.read(len(mirrored))
            if mirrored != original:
                problems.append(
                    f"segment {number}: replica bytes are not a prefix of the "
                    f"primary's ({len(mirrored)} bytes compared)"
                )
        return problems

    def acked_prefix_problems(self, engine) -> List[str]:
        """The promoted engine must equal the acked prefix its version selects."""
        from repro.serve import ReproServer, ServerConfig

        version = engine.state_version
        if version > len(self.acked):
            return [
                f"promoted replica at version {version} is ahead of the "
                f"{len(self.acked)} acknowledged op(s)"
            ]
        reference_server = ReproServer(
            ServerConfig(host="127.0.0.1", port=0, quiet=True)
        ).start()
        try:
            reference_api = APIClient(
                reference_server.url, max_retries=1, sleep=lambda _: None
            )
            for op in self.acked[:version]:
                _apply_op(reference_api, self.tenant, op)
            reference = reference_server.sessions.get(self.tenant).engine
            return state_differences(engine_state(reference), engine_state(engine))
        finally:
            reference_server.close(drain=False)

    def fenced_primary_problems(self) -> List[str]:
        """A demoted primary must never acknowledge another write."""
        problems: List[str] = []
        session = self.primary.sessions.get(self.tenant)
        if session.role != "fenced":
            problems.append(f"old primary role is {session.role!r}, not fenced")
        probe = {"updates": [{"M": {"rows": [["PostFence", "Drama", "Nobody"]]}}]}
        try:
            self.api.post(f"v1/{self.tenant}/apply", probe)
        except APIError as error:
            if error.status not in (503, 409):
                problems.append(
                    f"post-fence write failed with {error.status}/{error.code}, "
                    f"expected 503 not_writable"
                )
        else:
            problems.append("demoted primary acknowledged a post-fence write")
        return problems

    def wait_old_primary_fenced(self, timeout: float = 10.0) -> Optional[str]:
        return _wait_until(
            lambda: self.primary.sessions.get(self.tenant).role == "fenced",
            timeout,
            "the old primary to observe the higher epoch and fence itself",
        )

    def close(self) -> None:
        for server in (self.replica, self.primary):
            try:
                server.close(drain=False)
            except Exception:
                pass
        self.tmp.cleanup()


# --------------------------------------------------------------------------- #
# Scenarios
# --------------------------------------------------------------------------- #
def _run_primary_kill(cell: _Cell, ops: Sequence[Tuple[str, Dict[str, Any]]]) -> List[str]:
    """Kill the primary mid-stream; promote; state ≡ an acked prefix."""
    half = len(ops) // 2
    cell.apply_acked(ops[:half])
    problem = cell.wait_converged()
    if problem:
        return [problem]
    cell.apply_acked(ops[half:])
    cell.kill_primary()
    result = cell.promote_replica()
    problems = [] if result.get("promoted") else [f"promote failed: {result}"]
    engine = cell.replica_session().engine
    problems += cell.acked_prefix_problems(engine)
    # The promoted tenant must take writes immediately.
    new_primary = APIClient(cell.replica.url, max_retries=1, sleep=lambda _: None)
    payload = new_primary.post(
        f"v1/{cell.tenant}/apply",
        {"updates": [{"M": {"rows": [["AfterFailover", "Drama", "Nobody"]]}}]},
    )
    if payload["results"][-1]["version"] != engine.state_version:
        problems.append("write after promotion did not advance the promoted engine")
    return problems


def _run_subscriber_partition(
    cell: _Cell, ops: Sequence[Tuple[str, Dict[str, Any]]]
) -> List[str]:
    """Partition the link mid-stream; heal; converge; promote; verify."""
    third = max(len(ops) // 3, 1)
    cell.apply_acked(ops[:third])
    problem = cell.wait_converged()
    if problem:
        return [problem]
    link = cell.replica_session().link
    link.pause()
    cell.apply_acked(ops[third : 2 * third])
    status = cell.replica_session().replication_status()
    problems: List[str] = []
    if status["state_version"] >= len(cell.acked):
        problems.append("partitioned replica kept up — the partition did nothing")
    link.resume()
    cell.apply_acked(ops[2 * third :])
    problem = cell.wait_converged()
    if problem:
        return problems + [problem]
    problems += cell.mirror_prefix_problems()
    result = cell.promote_replica()
    if not result.get("promoted"):
        problems.append(f"promote failed: {result}")
    problems += cell.acked_prefix_problems(cell.replica_session().engine)
    problem = cell.wait_old_primary_fenced()
    if problem:
        return problems + [problem]
    return problems + cell.fenced_primary_problems()


def _run_double_promotion(
    cell: _Cell, ops: Sequence[Tuple[str, Dict[str, Any]]]
) -> List[str]:
    """Promote twice; the second is idempotent, stale demotes are refused."""
    cell.apply_acked(ops)
    problem = cell.wait_converged()
    if problem:
        return [problem]
    first = cell.promote_replica()
    problems = [] if first.get("promoted") else [f"first promote failed: {first}"]
    second = cell.promote_replica()
    if not second.get("already_primary"):
        problems.append(f"second promote was not idempotent: {second}")
    if second.get("epoch") != first.get("epoch"):
        problems.append(
            f"re-promotion moved the epoch: {first.get('epoch')} -> "
            f"{second.get('epoch')}"
        )
    problems += cell.acked_prefix_problems(cell.replica_session().engine)
    problem = cell.wait_old_primary_fenced()
    if problem:
        return problems + [problem]
    problems += cell.fenced_primary_problems()
    # A demote that does not supersede the current epoch must be refused.
    new_primary = APIClient(cell.replica.url, max_retries=1, sleep=lambda _: None)
    try:
        new_primary.post(
            f"v1/{cell.tenant}/demote",
            {"epoch": first.get("epoch", 1), "reason": "stale split-brain demote"},
        )
    except APIError as error:
        if error.status != 409:
            problems.append(
                f"stale demote failed with {error.status}, expected 409"
            )
    else:
        problems.append("new primary accepted a demote at its own epoch")
    return problems


def _run_replica_crash_mid_apply(
    cell: _Cell, ops: Sequence[Tuple[str, Dict[str, Any]]]
) -> List[str]:
    """Crash the replica between mirror-append and engine-apply; restart;
    it must resume from its own mirror and converge; promote; verify."""
    half = len(ops) // 2
    cell.apply_acked(ops[:half])
    problem = cell.wait_converged()
    if problem:
        return [problem]
    crashed = threading.Event()

    def _chaos(point: str) -> None:
        if point == "replica.mid_apply" and not crashed.is_set():
            crashed.set()
            raise RuntimeError("chaos: replica dies between mirror and apply")

    link = cell.replica_session().link
    link._chaos = _chaos
    cell.apply_acked(ops[half:])
    problem = _wait_until(
        lambda: link.crashed, 10.0, "the chaos hook to crash the replica link"
    )
    if problem:
        return [problem]
    cell.restart_replica()
    problem = cell.wait_converged()
    if problem:
        return [problem]
    problems = cell.mirror_prefix_problems()
    result = cell.promote_replica()
    if not result.get("promoted"):
        problems.append(f"promote failed: {result}")
    problems += cell.acked_prefix_problems(cell.replica_session().engine)
    problem = cell.wait_old_primary_fenced()
    if problem:
        return problems + [problem]
    return problems + cell.fenced_primary_problems()


_SCENARIO_RUNNERS = {
    "primary_kill": _run_primary_kill,
    "subscriber_partition": _run_subscriber_partition,
    "double_promotion": _run_double_promotion,
    "replica_crash_mid_apply": _run_replica_crash_mid_apply,
}


# --------------------------------------------------------------------------- #
# Battery
# --------------------------------------------------------------------------- #
def run_battery(
    strategies: Sequence[str] = tuple(STRATEGIES),
    scenarios: Sequence[str] = CHAOS_SCENARIOS,
    *,
    movies: int = 12,
    updates: int = 5,
    fsync: Optional[str] = None,
    verbose: bool = False,
) -> List[str]:
    """Run the full chaos battery; returns the list of failures."""
    policy = resolve_fsync_policy(fsync)
    failures: List[str] = []
    for strategy in strategies:
        ops = build_wire_ops(strategy, movies, updates)
        for scenario in scenarios:
            cell_name = f"{strategy} × {scenario}"
            cell = _Cell(strategy, policy)
            try:
                problems = _SCENARIO_RUNNERS[scenario](cell, ops)
            except (APIError, OSError) as error:
                problems = [f"unhandled error: {error}"]
            finally:
                cell.close()
            if problems:
                failures.extend(f"{cell_name}: {problem}" for problem in problems)
                print(f"FAIL  {cell_name}")
                for problem in problems:
                    print(f"      - {problem}")
            elif verbose:
                print(f"ok    {cell_name}")
    return failures


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.replication.chaoscheck",
        description="Replication & failover chaos battery (see docs/replication.md)",
    )
    parser.add_argument(
        "--strategy",
        action="append",
        choices=STRATEGIES,
        default=None,
        help="restrict to one strategy (repeatable; default: all four)",
    )
    parser.add_argument(
        "--scenario",
        action="append",
        choices=CHAOS_SCENARIOS,
        default=None,
        help="restrict to one chaos scenario (repeatable; default: all)",
    )
    parser.add_argument("--movies", type=int, default=12)
    parser.add_argument("--updates", type=int, default=5)
    parser.add_argument(
        "--fsync",
        choices=("always", "batch", "off"),
        default=None,
        help="WAL fsync policy (default: batch)",
    )
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    strategies = tuple(args.strategy or STRATEGIES)
    scenarios = tuple(args.scenario or CHAOS_SCENARIOS)
    started = time.perf_counter()
    failures = run_battery(
        strategies,
        scenarios,
        movies=args.movies,
        updates=args.updates,
        fsync=args.fsync,
        verbose=args.verbose,
    )
    cells = len(strategies) * len(scenarios)
    elapsed = time.perf_counter() - started
    policy = resolve_fsync_policy(args.fsync)
    if failures:
        print(
            f"chaoscheck: {len(failures)} failure(s) across {cells} cells "
            f"(fsync={policy}, {elapsed:.1f}s)"
        )
        return 1
    print(
        f"chaoscheck: {cells} cells held — promoted state ≡ acked prefix, "
        f"no post-fence ack (strategies={','.join(strategies)}, "
        f"fsync={policy}, {elapsed:.1f}s)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
