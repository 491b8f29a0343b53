#!/usr/bin/env python3
"""ivmbench entry point.

The driver's contract (one workload, one run, result on the last line)::

    python3 benchmarks/suite/run.py --workload flat_inproc --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics on an untraced system and
reports them at reference host speed (``harness.probe_once``; the printed
table and the result files also carry them as measured); ``--trace 1`` does
the same and then runs the workload again, shorter, with spans recorded
(same topology, fresh system), and reports the per-layer metrics — the
ratio of the two runs' throughput is ``trace.overhead_ratio``.

The suite's own commands::

    python3 benchmarks/suite/run.py run [--workload W]... [--seed S] [--repeat N]
                                        [--traced] [--quick] [--out FILE]
    python3 benchmarks/suite/run.py compare A.json B.json

``run`` executes each workload in a fresh process per run (so peak RSS is
per run), collects every metric with provenance into one result file under
``benchmarks/suite/results/`` and exits non-zero if any output was wrong;
``compare`` marks each (workload, end-to-end metric) ``ok`` / ``regressed``
/ ``unresolved`` against the suite's 10 % gate.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(SUITE_DIR))
QUICK_SECONDS = 2.0
#: ``--trace 1`` follows a served untraced run with a traced one this much
#: as long (in process the traced run is a fixed count: ``inproc.run``).
TRACED_SHARE = 0.3


def _bootstrap() -> None:
    """Make ``repro`` and ``benchmarks.suite`` importable from a checkout."""
    if not os.path.isdir(os.path.join(REPO_ROOT, "src", "repro")):
        sys.exit(f"ivmbench: no src/repro under {REPO_ROOT}; run from a full checkout")
    sys.path[:0] = [REPO_ROOT, os.path.join(REPO_ROOT, "src")]


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One contract run; returns the full record (the last stdout line is
    its ``correct`` / ``attempted`` / ``failed`` / ``metrics`` subset)."""
    from benchmarks.suite import harness, inproc, layers, report, service
    from benchmarks.suite.metrics import SUITE_ONLY, registry
    from benchmarks.suite.tracing import NullTracer, Tracer, load_spans

    cpu = harness.pin_run()
    in_process = workload in inproc.SCENARIOS

    def run(tracer: object, length: float, repeats: int) -> harness.Phase:
        traced = isinstance(tracer, Tracer)
        if in_process:
            return inproc.run(workload, seed, length, tracer, repeats=repeats, fixed_count=traced)
        return service.run(workload, seed, length, tracer, traced=traced, repeats=repeats)

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "traced": trace, "cpu": cpu,
    }
    known = registry()
    try:
        untraced = run(NullTracer(), seconds, harness.REPEATS)
        phases = [untraced]
        both = harness.end_to_end(untraced)
        record["end_to_end"] = {name: scaled for name, (scaled, _) in both.items()}
        record["as_measured"] = {name: measured for name, (_, measured) in both.items()}
        report.print_metrics(
            f"{workload}: end-to-end (untraced; at reference host speed | as measured)",
            record["end_to_end"], record["as_measured"],
        )
        values = {name: record["end_to_end"][name] for name in known.universal}
        if trace:
            tracer = Tracer("g")
            layers.install(tracer)
            traced = run(tracer, seconds if in_process else seconds * TRACED_SHARE, 1)
            phases.append(traced)
            own = os.path.join(harness.work_dir("generator"), "generator.json")
            with open(own, "w", encoding="utf-8") as handle:
                json.dump(tracer.export(layers.layer_of), handle)
            spans = load_spans([own] + traced.span_files)
            analysis = harness.analyse_spans(traced, spans)
            extra = {name: record["end_to_end"][name] for name in SUITE_ONLY}
            extra["trace.overhead_ratio"] = harness.overhead_ratio(traced, untraced)
            if in_process:
                extra["ivm.speedup_vs_naive"] = inproc.speedup_vs_naive(traced, seed)
            values = harness.per_layer(traced, analysis, extra)
            record["per_layer"] = values
            record["analysis"] = {
                key: analysis[key]
                for key in (
                    "apply_shares", "attributed_share", "span_shares",
                    "self_time_excess_s", "ops", "spans",
                )
            }
            record["unresolved_parents"] = _unresolved_parents(spans)
            report.print_metrics(f"{workload}: per-layer (traced run)", values)
            report.print_shares(analysis)
    finally:
        harness.remove_work_dirs()
    errors = [message for phase in phases for message in phase.errors]
    for message in errors:
        print(f"FAILED: {message}")
    failed = sum(phase.failed for phase in phases)
    units = known.units
    start, end = untraced.windows["measure"]
    record.update(
        correct=failed == 0,
        attempted=sum(phase.attempted for phase in phases),
        failed=failed,
        errors=errors,
        samples=harness.sample_counts(untraced),
        sizes=untraced.sizes,
        duration_s=untraced.duration_s,
        host_factor=untraced.host_factor(start, end, minimum=1),
        metrics={name: {"value": value, "unit": units[name]} for name, value in values.items()},
    )
    return record


def _unresolved_parents(spans: list) -> int:
    known = {span["id"] for span in spans}
    return sum(1 for span in spans if span["parent"] is not None and span["parent"] not in known)


def contract_main(args: argparse.Namespace) -> int:
    # The in-process workloads' engine lives in this process, and shard
    # routing hashes strings: pin the hash seed the served processes get too.
    from benchmarks.suite.served import sut_environment

    env = sut_environment()
    if os.environ.get("PYTHONHASHSEED") != env["PYTHONHASHSEED"]:
        os.execve(sys.executable, [sys.executable] + sys.argv, env)
    record = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.detail:
        with open(args.detail, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


# --------------------------------------------------------------------------- #
def suite_run(args: argparse.Namespace) -> int:
    from benchmarks.suite import report
    from benchmarks.suite.metrics import registry

    seconds = QUICK_SECONDS if args.quick else float(args.seconds or registry().run_seconds)
    workloads = args.workload or list(registry().workloads)
    out = args.out or os.path.join(
        SUITE_DIR, "results", time.strftime("run-%Y%m%d-%H%M%S.json")
    )
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    runs = []
    wrong = 0
    for repeat in range(args.repeat):
        seed = args.seed + (repeat if args.vary_seed else 0)
        for workload in workloads:
            detail = f"{out}.{os.getpid()}.partial"
            command = [
                sys.executable, os.path.abspath(__file__),
                "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(int(args.traced)), "--detail", detail,
            ]
            print(f"== {workload} seed={seed} traced={args.traced} ({seconds:g}s)", flush=True)
            completed = subprocess.run(command)
            if not os.path.exists(detail):
                print(f"run failed with exit code {completed.returncode}")
                wrong += 1
                continue
            with open(detail, "r", encoding="utf-8") as handle:
                record = json.load(handle)
            os.remove(detail)
            wrong += not record["correct"]
            runs.append(record)
    result = {"schema": 1, "provenance": report.provenance(args.seed, seconds), "runs": runs}
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    print(f"wrote {out} ({len(runs)} runs, {wrong} incorrect)")
    return 1 if wrong else 0


def main() -> int:
    _bootstrap()
    if len(sys.argv) > 1 and sys.argv[1] in ("run", "compare"):
        parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n\n")[0])
        commands = parser.add_subparsers(dest="command", required=True)
        run = commands.add_parser("run", help="run workloads, write a result file")
        run.add_argument("--workload", action="append", help="repeatable; default all four")
        run.add_argument("--seed", type=int, default=1)
        run.add_argument("--seconds", type=float, help="default: BENCHMARK.json run_seconds")
        run.add_argument("--repeat", type=int, default=1)
        run.add_argument("--vary-seed", action="store_true", help="run i uses seed+i")
        run.add_argument("--traced", action="store_true", help="follow each run with a traced one")
        run.add_argument("--quick", action="store_true", help=f"{QUICK_SECONDS:g}s runs")
        run.add_argument("--out", metavar="FILE")
        cmp_parser = commands.add_parser("compare", help="B against A, per metric")
        cmp_parser.add_argument("a")
        cmp_parser.add_argument("b")
        args = parser.parse_args()
        if args.command == "run":
            return suite_run(args)
        from benchmarks.suite import report

        return 1 if report.compare(args.a, args.b) else 0
    from benchmarks.suite.metrics import registry

    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=registry().workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--detail", metavar="FILE", help="also write the full record here")
    return contract_main(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
