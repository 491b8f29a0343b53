"""Result files: provenance, the printed metric table, and ``compare``."""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
from typing import Any, Dict, List, Optional

from .metrics import GATE, REPO_ROOT, registry, spread


def provenance(seed: int, seconds: float) -> Dict[str, Any]:
    """Who measured what, with which defaults in effect — enough to re-run
    a trajectory row."""
    from repro.durability.wal import resolve_fsync_policy
    from repro.engine.scheduler import resolve_backend_spec, resolve_view_workers
    from repro.serve import ServerConfig
    from repro.storage import resolve_shard_count

    from .served import sut_environment

    def git(*arguments: str) -> str:
        return subprocess.run(
            ["git", *arguments], cwd=REPO_ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
        sha = git("rev-parse", "HEAD")
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    except (OSError, subprocess.CalledProcessError):
        sha, dirty = "unknown", False
    config = ServerConfig()
    return {
        "seed": seed,
        "run_seconds": seconds,
        "git_sha": sha,
        "git_dirty": dirty,
        "host": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "engine_defaults": {
            "shards": resolve_shard_count(None),
            "parallel_views": resolve_view_workers(None),
            "backend": resolve_backend_spec(None)[0],
            "fsync": resolve_fsync_policy(None),
            "queue_depth": config.queue_depth,
            "coalesce": config.coalesce,
            "poll_wait": config.poll_wait,
            "poll_interval": config.poll_interval,
            "env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
            "PYTHONHASHSEED": sut_environment()["PYTHONHASHSEED"],
        },
    }


def print_metrics(
    title: str, values: Dict[str, float], measured: Optional[Dict[str, float]] = None
) -> None:
    """One line per metric; with ``measured``, the as-measured value beside
    the one at reference host speed."""
    print(f"-- {title}")
    units = registry().units
    width = max(len(name) for name in values)
    for name, value in values.items():
        beside = f" | {measured[name]:>14.6g}" if measured else ""
        print(f"{name:<{width}}  {value:>14.6g}{beside} {units[name]}")


def print_shares(analysis: Dict[str, Any]) -> None:
    print("-- share of op.apply wall time by layer (traced run)")
    for layer, share in analysis["apply_shares"].items():
        print(f"{layer:<14} {share:7.1%}")
    print(f"{'attributed':<14} {analysis['attributed_share']:7.1%}")


# --------------------------------------------------------------------------- #
# compare
# --------------------------------------------------------------------------- #
def _series(result: Dict[str, Any]) -> Dict[str, Dict[str, List[float]]]:
    """workload -> end-to-end metric -> one value per run."""
    series: Dict[str, Dict[str, List[float]]] = {}
    for run in result["runs"]:
        metrics = series.setdefault(run["workload"], {})
        for name, value in run.get("end_to_end", {}).items():
            metrics.setdefault(name, []).append(value)
    return series


def compare(path_a: str, path_b: str) -> int:
    """One row per (workload, end-to-end metric): is B no worse than A?

    ``regressed``: B's median is worse than A's by more than the gate
    (:data:`~.metrics.GATE`; any failure at all for ``failed_share``).
    ``unresolved``: the run-to-run spread of either side is wider than the
    gate, so the medians cannot settle it.  Returns the number of rows that
    are not ``ok``.
    """
    with open(path_a, "r", encoding="utf-8") as handle:
        series_a = _series(json.load(handle))
    with open(path_b, "r", encoding="utf-8") as handle:
        series_b = _series(json.load(handle))
    header = f"{'workload':<20} {'metric':<24} {'A median':>12} {'B median':>12} {'change':>8} {'spread':>7} {'gate':>6}  verdict"
    print(header)
    bad = 0
    known = registry()
    for workload in series_a:
        for name in known.end_to_end:
            a = series_a[workload].get(name)
            b = series_b.get(workload, {}).get(name)
            if not a or not b:
                continue
            median_a, median_b = statistics.median(a), statistics.median(b)
            if median_a == 0 and median_b == 0:
                continue  # not measured on this workload
            bound = 0.0 if name == "failed_share" else GATE
            worse = (median_b - median_a) if known.better[name] == "lower" else (median_a - median_b)
            change = worse / abs(median_a) if median_a else float("inf")
            widest = max(spread(a), spread(b))
            if change > bound:
                verdict = "regressed"
            elif widest > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            bad += verdict != "ok"
            print(
                f"{workload:<20} {name:<24} {median_a:>12.5g} {median_b:>12.5g} "
                f"{change:>+8.1%} {widest:>7.1%} {bound:>6.0%}  {verdict}"
            )
    return bad
