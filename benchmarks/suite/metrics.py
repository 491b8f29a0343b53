"""The metric registry, read from ``BENCHMARK.json``, and the sample statistics.

``BENCHMARK.json`` at the repo root is the one place that names every
workload and metric with its unit and direction.  The driver's contract
wants every ``end_to_end`` metric non-zero on every workload, so the three
end-to-end metrics that are 0 where they do not apply (:data:`SUITE_ONLY`)
are listed there under ``per_layer``.

Two thresholds exist, and they answer different questions.  ``bound`` in
``BENCHMARK.json`` is where the *driver* rejects a change outright; the
driver refuses a benchmark whose own run-to-run spread exceeds it, so it is
sized from the measured spread.  :data:`GATE` is the issue's 10 %: the
suite's ``compare`` judges every end-to-end metric by it and says
``unresolved`` where the spread is wider — a gate cannot be made finer than
the noise by writing a smaller number next to it.
"""

from __future__ import annotations

import functools
import json
import math
import os
import statistics
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: What ``compare`` lets an end-to-end metric worsen by (``failed_share``: 0).
GATE = 0.10
#: End-to-end metrics only ``serve_write_durable`` has (0 elsewhere), and
#: ``failed_share``, which is 0 on every healthy run.
SUITE_ONLY = ("replica_visible_p50_ms", "recover_s", "failed_share")


@dataclass(frozen=True)
class Registry:
    workloads: Tuple[str, ...]
    #: every workload reports these, untraced; the driver bounds them
    universal: Tuple[str, ...]
    #: all twelve end-to-end metrics: ``universal`` + :data:`SUITE_ONLY`
    end_to_end: Tuple[str, ...]
    #: what ``--trace 1`` emits (:data:`SUITE_ONLY` included)
    per_layer: Tuple[str, ...]
    units: Dict[str, str]
    better: Dict[str, str]
    run_seconds: int


@functools.lru_cache(maxsize=None)
def registry() -> Registry:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        contract = json.load(handle)
    metrics = contract["end_to_end"] + contract["per_layer"]
    universal = tuple(metric["name"] for metric in contract["end_to_end"])
    return Registry(
        workloads=tuple(workload["name"] for workload in contract["workloads"]),
        universal=universal,
        end_to_end=universal + SUITE_ONLY,
        per_layer=tuple(metric["name"] for metric in contract["per_layer"]),
        units={metric["name"]: metric["unit"] for metric in metrics},
        better={metric["name"]: metric["better"] for metric in metrics},
        run_seconds=contract["run_seconds"],
    )


# --------------------------------------------------------------------------- #
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def p50_ms(seconds: Sequence[float]) -> float:
    return statistics.median(seconds) * 1e3 if seconds else 0.0


def spread(values: List[float]) -> float:
    """Inter-quartile distance as a share of the median — the driver's own
    steadiness figure (``statistics.quantiles(values, n=4)``); with fewer
    than four values, the full range instead."""
    if len(values) < 2:
        return 0.0
    middle = statistics.median(values)
    if middle == 0:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(middle)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(middle)
