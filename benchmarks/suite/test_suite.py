"""Self-test of the benchmark suite (not part of the tier-1 ``tests/`` run).

    PYTHONPATH=src python -m pytest -q benchmarks/suite/test_suite.py

The slow half runs every workload for ~2 s, untraced and traced, through the
same command line the driver uses (about 100 s in total); the fast
half checks the span arithmetic and ``compare`` on synthetic inputs.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import pytest

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(SUITE_DIR))
sys.path[:0] = [REPO_ROOT, os.path.join(REPO_ROOT, "src")]

from benchmarks.suite import harness, layers, metrics, report, tracing  # noqa: E402

with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _handle:
    CONTRACT = json.load(_handle)


# --------------------------------------------------------------------------- #
# The contract file
# --------------------------------------------------------------------------- #
def test_gate_and_driver_bounds():
    assert CONTRACT["paths"] == ["benchmarks/suite"]
    assert metrics.GATE <= 0.10  # what compare judges by: the issue's 10 %
    # the driver's rejection thresholds: never finer than the gate, never
    # past what its contract allows
    assert all(metrics.GATE <= m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])
    known = metrics.registry()
    assert len(known.end_to_end) == 12 and set(metrics.SUITE_ONLY) <= set(known.per_layer)


def test_every_span_metric_has_a_span():
    spans = set(layers.SPANS) | set(layers.CUSTOM_SPANS)
    for name in metrics.registry().per_layer:
        if metrics.registry().units[name] == "s" and "." in name:
            assert name[:-2] in spans, f"{name} has no span feeding it"
    for span in spans:
        assert layers.layer_of(span) in layers.LAYERS + (layers.UNATTRIBUTED,)


# --------------------------------------------------------------------------- #
# Span arithmetic
# --------------------------------------------------------------------------- #
def _span(span_id, name, start, end, parent=None, op="root"):
    return {"id": span_id, "name": name, "start": start, "end": end, "parent": parent, "op": op}


def test_exclusive_times_sum_to_the_ops_wall_time():
    spans = [
        _span("root", "op.apply", 0.0, 10.0),
        _span("a", "engine.apply", 1.0, 9.0, "root"),
        # two refreshes interleaved on pool threads share their overlap
        _span("b", "ivm.classic.refresh", 2.0, 6.0, "a"),
        _span("c", "ivm.recursive.refresh", 4.0, 8.0, "a"),
        _span("d", "nrc.compile.evaluate", 4.5, 5.5, "c"),
    ]
    root, times = tracing.exclusive_times(spans)
    assert root["id"] == "root"
    assert math.isclose(sum(times.values()), 10.0)
    assert math.isclose(times["op.apply"], 2.0)
    assert math.isclose(times["engine.apply"], 2.0)  # [1,2] and [8,9]
    assert math.isclose(times["ivm.classic.refresh"], 2.0 + 1.0)  # alone, then half of [4,6]
    assert math.isclose(times["nrc.compile.evaluate"], 0.5)


def test_a_blocked_thread_hands_its_time_to_the_work_it_waits_for():
    spans = [
        _span("h", "serve.http.handler", 0.0, 10.0, None, "h"),
        _span("w", "wait.ack", 1.0, 9.0, "h", "h"),
        # recorded after the fact, starting before the wait span itself
        _span("q", "serve.ingest.queue_wait", 0.5, 3.0, "w", "h"),
        _span("b", "serve.ingest.batch", 3.0, 8.0, "w", "h"),
        _span("s", "durability.wal_sync", 7.0, 7.5, "b", "h"),
    ]
    _, times = tracing.exclusive_times(spans)
    assert math.isclose(sum(times.values()), 10.0)
    assert math.isclose(times["serve.ingest.queue_wait"], 0.25 + 2.0)
    assert math.isclose(times["serve.ingest.batch"], 4.5)
    assert math.isclose(times["durability.wal_sync"], 0.5)
    assert math.isclose(times["wait.ack"], 1.0)  # [8,9]: batch done, handler not yet awake
    # alone in [0,0.5] and [9,10]; shares [0.5,1] with the early queue wait
    assert math.isclose(times["serve.http.handler"], 0.5 + 0.25 + 1.0)


def test_spans_are_clipped_to_their_operation():
    spans = [
        _span("root", "op.apply", 0.0, 4.0),
        _span("late", "serve.sessions.publish_snapshot", 3.0, 9.0, "root"),
    ]
    _, times = tracing.exclusive_times(spans)
    assert math.isclose(times["op.apply"], 3.0)
    assert math.isclose(times["serve.sessions.publish_snapshot"], 1.0)


def test_load_spans_roots_ops_across_processes(tmp_path):
    client = {"proc": "g", "counts": {}, "spans": [
        {"id": "g.1", "name": "op.apply", "layer": "unattributed", "start": 0, "end": 5, "parent": None},
        {"id": "g.2", "name": "client.request", "layer": "client", "start": 1, "end": 4, "parent": "g.1"},
    ]}
    server = {"proc": "p", "counts": {"serve.http.requests": 1}, "spans": [
        {"id": "p.1", "name": "serve.http.handler", "layer": "serve", "start": 2, "end": 3, "parent": "g.2"},
        {"id": "p.2", "name": "serve.ingest.batch", "layer": "serve", "start": 6, "end": 7, "parent": "p.99"},
    ]}
    paths = []
    for dump in (client, server):
        path = tmp_path / f"{dump['proc']}.json"
        path.write_text(json.dumps(dump))
        paths.append(str(path))
    ops = {span["id"]: span["op"] for span in tracing.load_spans(paths)}
    assert ops == {"g.1": "g.1", "g.2": "g.1", "p.1": "g.1", "p.2": "p.2"}


# --------------------------------------------------------------------------- #
# Host-speed correction
# --------------------------------------------------------------------------- #
def test_a_slow_stretch_of_host_cancels_out():
    """Five seconds at reference speed, then five on a host half as fast:
    latencies double, the rate halves, and so does the probe."""
    phase = harness.Phase("synthetic")
    phase.windows["measure"] = (0.0, 10.0)
    phase.duration_s = 10.0
    for start, slow in ((0.0, 1.0), (5.0, 2.0)):
        for tick in range(int(500 / slow)):
            phase.samples["apply"].append((start + tick * 0.01 * slow, 0.002 * slow))
        for tick in range(100):
            phase.probes.append((start + tick * 0.05, harness.REFERENCE_PROBE_S * slow))
    values = harness.end_to_end(phase)
    scaled, measured = values["apply_p95_ms"]
    assert math.isclose(measured, 4.0) and math.isclose(scaled, 2.0)
    scaled, measured = values["updates_per_s"]
    assert math.isclose(measured, 75.0) and math.isclose(scaled, 100.0)
    # a metric with no samples on this workload stays 0
    assert values["replica_visible_p50_ms"] == (0.0, 0.0)


def test_a_short_phase_falls_back_to_one_window():
    phase = harness.Phase("synthetic")
    phase.windows["measure"] = (0.0, 0.5)
    phase.duration_s = 0.5
    phase.samples["apply"] = [(0.1 * tick, 0.003) for tick in range(5)]
    phase.probes = [(0.2, harness.REFERENCE_PROBE_S * 1.5)]
    scaled, measured = harness.end_to_end(phase)["apply_p50_ms"]
    assert math.isclose(measured, 3.0) and math.isclose(scaled, 2.0)


# --------------------------------------------------------------------------- #
# compare
# --------------------------------------------------------------------------- #
def _result(path, apply_p50, read_full):
    runs = [
        {"workload": "flat_inproc", "end_to_end": {"apply_p50_ms": a, "read_full_p50_ms": r}}
        for a, r in zip(apply_p50, read_full)
    ]
    path.write_text(json.dumps({"schema": 1, "runs": runs}))
    return str(path)


def test_compare_marks_ok_regressed_unresolved(tmp_path, capsys):
    base = _result(tmp_path / "a.json", [10.0, 10.1, 9.9, 10.0], [5.0, 5.0, 5.1, 4.9])
    same = _result(tmp_path / "b.json", [10.2, 10.0, 10.1, 9.9], [5.0, 5.1, 5.0, 4.9])
    slow = _result(tmp_path / "c.json", [14.0, 14.1, 13.9, 14.0], [5.0, 9.0, 2.0, 5.0])
    assert report.compare(base, same) == 0
    assert report.compare(base, slow) == 2
    rows = capsys.readouterr().out
    assert "apply_p50_ms" in rows and "regressed" in rows and "unresolved" in rows


# --------------------------------------------------------------------------- #
# Every workload, end to end, through the driver's command line
# --------------------------------------------------------------------------- #
def _run(workload, trace, tmp_path):
    detail = tmp_path / f"{workload}.{trace}.json"
    completed = subprocess.run(
        [
            sys.executable, os.path.join(SUITE_DIR, "run.py"),
            "--workload", workload, "--seed", "7", "--seconds", "2",
            "--trace", str(trace), "--detail", str(detail),
        ],
        capture_output=True, text=True, timeout=170, cwd=REPO_ROOT,
    )
    assert completed.returncode == 0, completed.stdout[-2000:] + completed.stderr[-2000:]
    last = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    return last, json.loads(detail.read_text())


@pytest.mark.parametrize("workload", metrics.registry().workloads)
def test_workload_untraced(workload, tmp_path):
    last, _ = _run(workload, 0, tmp_path)
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == {m["name"] for m in CONTRACT["end_to_end"]}
    for metric in CONTRACT["end_to_end"]:
        emitted = last["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert math.isfinite(emitted["value"]) and emitted["value"] > 0, metric["name"]


@pytest.mark.parametrize("workload", metrics.registry().workloads)
def test_workload_traced(workload, tmp_path):
    last, record = _run(workload, 1, tmp_path)
    assert last["correct"] and last["failed"] == 0  # the oracle check passed
    assert set(last["metrics"]) == {m["name"] for m in CONTRACT["per_layer"]}
    for metric in CONTRACT["per_layer"]:
        emitted = last["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert math.isfinite(emitted["value"]) and emitted["value"] >= 0, metric["name"]
    assert record["unresolved_parents"] == 0
    assert record["analysis"]["self_time_excess_s"] <= 1e-9
    # the issue's 85 % is asked of these two; on serve_read_mixed half of an
    # ack's wall time is the handler waiting for the GIL (see the README)
    floor = 0.85 if workload in ("flat_inproc", "serve_write_durable") else 0.3
    assert record["analysis"]["attributed_share"] > floor
    values = record["per_layer"]
    assert values["engine.apply_s"] > 0 and values["trace.overhead_ratio"] > 0
    served = workload.startswith("serve_")
    assert (values["serve.http.handler_s"] > 0) == served
    assert (values["durability.wal_sync_s"] > 0) == (workload == "serve_write_durable")
    assert (values["recover_s"] > 0) == (workload == "serve_write_durable")


def test_refuses_to_run_outside_a_checkout(tmp_path):
    """With only BENCHMARK.json and the suite directory present there is no
    program to measure: exit non-zero, print no result."""
    import shutil

    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(
        SUITE_DIR, tmp_path / "benchmarks" / "suite",
        ignore=shutil.ignore_patterns("__pycache__", ".work", "results"),
    )
    completed = subprocess.run(
        [
            sys.executable, "benchmarks/suite/run.py",
            "--workload", "flat_inproc", "--seed", "1", "--seconds", "2", "--trace", "0",
        ],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert completed.returncode != 0
    assert not completed.stdout.strip()
