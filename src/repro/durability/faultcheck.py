"""``python -m repro.durability.faultcheck``: the crash-recovery battery.

For every maintenance strategy (naive / classic / recursive / nested) and
every :data:`~repro.durability.faults.CRASH_POINTS` entry, this module

1. runs the movie workload (dataset, one pinned-strategy view, a batched
   update stream with deletions) on a plain in-memory engine — the
   **uninterrupted baseline**;
2. runs it again against a durable engine with a
   :class:`~repro.durability.faults.FaultInjector` armed at the point,
   simulates the power loss, reopens the engine from the same data
   directory, and re-applies exactly the ops the recovery did not restore;
3. requires the two engines to be indistinguishable: identical
   ``state_version``, identical dataset and view contents, identical
   normalized storage reports (volatile counters stripped — see
   :func:`~repro.durability.faults.normalized_storage_report`).

It also asserts the RPO contract of the sync points: a crash *after* the
k-th fsync must preserve exactly k acknowledged operations
(``wal.post_fsync`` at offset k recovers version ``k + 1``; ``pre_fsync``
recovers ``k``), and that offset 0 actually fires every point — a battery
that never crashes proves nothing.

Exit status 0 when every cell converges, 1 with a per-cell report
otherwise.  CI runs this as its crash-recovery leg with ``--fsync
batch``; ``--fsync`` selects the WAL fsync policy.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
from typing import List, Optional, Sequence, Tuple

from repro.durability.faults import (
    CRASH_POINTS,
    crash_and_recover,
    engine_state,
    state_differences,
)
from repro.durability.wal import resolve_fsync_policy
from repro.engine import STRATEGIES, Engine
from repro.workloads.movies import (
    MOVIE_SCHEMA,
    generate_movies,
    genre_selfjoin_query,
    movie_update_stream,
    related_query,
)

__all__ = ["main", "run_battery"]

#: Offsets that exercise first-occurrence and mid-workload crashes.  The
#: one-shot points (rotation and the checkpoint seams) only occur once per
#: run, so later offsets legitimately never fire — the cell then checks
#: the no-crash path still converges.
DEFAULT_AFTERS = (0, 2)


def build_ops(strategy: str, movies: int, updates: int) -> List[Tuple]:
    """The workload of one battery cell, as replayable op tuples."""
    rows = generate_movies(movies)
    query = related_query() if strategy == "nested" else genre_selfjoin_query()
    ops: List[Tuple] = [
        ("dataset", "M", MOVIE_SCHEMA, rows),
        ("view", f"{strategy}_view", query, strategy),
    ]
    stream = movie_update_stream(
        updates, batch_size=3, existing=rows, deletion_ratio=0.25
    )
    ops.extend(("update", update) for update in stream)
    return ops


def _baseline(ops: Sequence[Tuple]) -> dict:
    from repro.durability.faults import apply_op

    engine = Engine()
    try:
        for op in ops:
            apply_op(engine, op)
        return engine_state(engine)
    finally:
        engine.close()


def _check_rpo(crash_at: str, after: int, crashed: bool, survived: int) -> List[str]:
    """The sync-point durability contract, stated as assertions."""
    problems = []
    if after == 0 and not crashed:
        problems.append(f"{crash_at}: injector armed at offset 0 never fired")
    if not crashed:
        return problems
    if crash_at == "wal.post_fsync" and survived != after + 1:
        problems.append(
            f"post_fsync@{after}: {after + 1} synced op(s) must survive, got {survived}"
        )
    if crash_at == "wal.pre_fsync" and survived != after:
        problems.append(
            f"pre_fsync@{after}: only {after} synced op(s) may survive, got {survived}"
        )
    if crash_at == "wal.mid_record" and survived > after:
        problems.append(
            f"mid_record@{after}: a torn record cannot be recovered, got {survived}"
        )
    return problems


def run_battery(
    strategies: Sequence[str] = tuple(STRATEGIES),
    crash_points: Sequence[str] = CRASH_POINTS,
    afters: Sequence[int] = DEFAULT_AFTERS,
    *,
    movies: int = 18,
    updates: int = 4,
    fsync: Optional[str] = None,
    verbose: bool = False,
) -> List[str]:
    """Run the full differential battery; returns the list of failures."""
    policy = resolve_fsync_policy(fsync)
    failures: List[str] = []
    for strategy in strategies:
        ops = build_ops(strategy, movies, updates)
        expected = _baseline(ops)
        for crash_at in crash_points:
            for after in afters:
                with tempfile.TemporaryDirectory(prefix="repro-faultcheck-") as tmp:
                    recovered, crashed, survived = crash_and_recover(
                        ops,
                        os.path.join(tmp, "db"),
                        crash_at=crash_at,
                        after=after,
                        fsync=policy,
                        sync_each=True,
                    )
                    try:
                        problems = state_differences(expected, engine_state(recovered))
                    finally:
                        recovered.close()
                problems += _check_rpo(crash_at, after, crashed, survived)
                cell = f"{strategy} × {crash_at}@{after}"
                status = "crashed" if crashed else "no-crash"
                if problems:
                    failures.extend(f"{cell}: {problem}" for problem in problems)
                    print(f"FAIL  {cell} [{status}, survived={survived}]")
                    for problem in problems:
                        print(f"      - {problem}")
                elif verbose:
                    print(f"ok    {cell} [{status}, survived={survived}]")
    return failures


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.durability.faultcheck",
        description="Differential crash-recovery battery (see docs/durability.md)",
    )
    parser.add_argument(
        "--strategy",
        action="append",
        choices=STRATEGIES,
        default=None,
        help="restrict to one strategy (repeatable; default: all four)",
    )
    parser.add_argument(
        "--crash-at",
        action="append",
        choices=CRASH_POINTS,
        default=None,
        help="restrict to one crash point (repeatable; default: all)",
    )
    parser.add_argument(
        "--after",
        type=int,
        action="append",
        default=None,
        help="crash-point offsets to arm (repeatable; default: 0 and 2)",
    )
    parser.add_argument("--movies", type=int, default=18)
    parser.add_argument("--updates", type=int, default=4)
    parser.add_argument(
        "--fsync",
        choices=("always", "batch", "off"),
        default=None,
        help="WAL fsync policy (default: batch)",
    )
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    strategies = tuple(args.strategy or STRATEGIES)
    points = tuple(args.crash_at or CRASH_POINTS)
    afters = tuple(args.after if args.after is not None else DEFAULT_AFTERS)
    started = time.perf_counter()
    failures = run_battery(
        strategies,
        points,
        afters,
        movies=args.movies,
        updates=args.updates,
        fsync=args.fsync,
        verbose=args.verbose,
    )
    cells = len(strategies) * len(points) * len(afters)
    elapsed = time.perf_counter() - started
    policy = resolve_fsync_policy(args.fsync)
    if failures:
        print(
            f"faultcheck: {len(failures)} failure(s) across {cells} cells "
            f"(fsync={policy}, {elapsed:.1f}s)"
        )
        return 1
    print(
        f"faultcheck: {cells} cells converged bit-for-bit "
        f"(strategies={','.join(strategies)}, fsync={policy}, {elapsed:.1f}s)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
