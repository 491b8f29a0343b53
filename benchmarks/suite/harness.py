"""What the four workloads share: the phase record, the read round for
in-process engines, and the reduction of samples and spans to named metrics.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import layers, tracing
from .metrics import percentile, registry

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
#: Scratch space (data dirs, span dumps) — inside the checkout, git-ignored,
#: one subdirectory per run, removed when the run ends.
WORK_ROOT = os.path.join(SUITE_DIR, ".work")

#: Untraced runs set up — and, where there is a log to recover from, crash
#: and recover — this many times, and report the medians.
REPEATS = 3
#: Rows per paged read, and the window page offsets stay inside.
PAGE_ROWS = 200
PAGE_WINDOW = 5000
#: Pages sliced per in-process page sample, evenly spaced over the window: a
#: slice costs more the further in it starts, so single pages at rotating
#: offsets spread 1:10 and their median wanders with the sample.
PAGE_SWEEP = 8
#: Repeated-identity reads timed together as one in-process 304 sample (a
#: single call sits at the timer's resolution).
UNCHANGED_BATCH = 1024

#: The measured phase is cut into windows of about this length; each metric
#: is computed per window and corrected by that window's host speed.
WINDOW_S = 1.0
#: Samples a window needs for a median / for a 95th percentile (sparser
#: samples get fewer, longer windows).
PER_WINDOW_P50 = 8
PER_WINDOW_P95 = 40
#: The host-speed probe: iterations of a fixed pure-Python kernel, how often
#: the measuring thread runs it, and the thread CPU time it takes on this
#: class of host at full clock (it fixes the scale of the reported numbers,
#: nothing else — see :func:`probe_once`).
PROBE_ROUNDS = 2000
PROBE_EVERY_S = 0.05
REFERENCE_PROBE_S = 0.70e-3

clock = tracing.clock


def probe_once() -> float:
    """Thread CPU seconds a fixed pure-Python kernel takes right now.

    The physical host runs its cores anywhere between base and turbo clock
    depending on what its other tenants do — a spinning loop here plateaus
    at 1.0x or at 1.64x for seconds to minutes, on both CPUs at once — and
    every interpreter-bound time in the suite stretches with it.  A run
    cannot choose its stretch of host, so it measures it: the thread that
    times operations also times this kernel every :data:`PROBE_EVERY_S`, and
    each window's metrics are divided by ``probe / REFERENCE_PROBE_S``.
    Thread CPU time, so another generator thread holding the GIL is not
    counted.
    """
    started = time.thread_time()
    table: Dict[Any, int] = {}
    for i in range(PROBE_ROUNDS):
        key = (i % 97, "k%d" % (i % 13))
        table[key] = table.get(key, 0) + 1
    return time.thread_time() - started


def pin_run() -> Optional[int]:
    """Pin this process — and with it every server it spawns, which inherit
    the mask — to one CPU; returns it, or ``None`` where the platform has no
    affinity call.

    A run keeps one CPU busy and leaves the rest alone.  On a small virtual
    machine a CPU that goes idle is taken away by the host, and comes back
    cold: the probe kernel below runs 2-3x slower right after a 20 ms sleep
    than back to back.  With generator and server on different CPUs each
    request idles one while the other works, so every hand-over pays that
    wake-up, and how much it costs is decided by the host's other tenants
    (`serve_read_mixed` read at 80-250 reads/s from run to run that way).
    On one CPU the hand-over is a context switch, the CPU never idles while
    an operation is in flight, and an operation's latency is the sum of the
    work its layers do — which is what a change to the code can move, and
    what the host-speed probe, running on that same CPU, can correct for.
    It also keeps the engine's own pool hand-offs from crossing CPUs (an
    inter-processor interrupt through the hypervisor each: unpinned,
    ``nested_inproc`` ran 40 % slower and flipped between two speeds).
    ``os.cpu_count()`` is unaffected, so every engine default resolves as
    it would unpinned.  The CPU is the highest-numbered one allowed: CPU 0
    takes the guest's housekeeping interrupts (here the vsock the harness
    itself talks over), the last one the disk's completions, which belong
    to the run.
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


#: Kinds of timed operation a phase records samples of.
KINDS = ("apply", "read_full", "read_page", "read_304", "replica_visible", "lateness")
READ_KINDS = ("read_full", "read_page", "read_304")


@dataclass
class Phase:
    """Everything one run of one workload measured."""

    workload: str
    #: kind -> [(when it completed, seconds it took)], on the perf_counter axis
    samples: Dict[str, List[Tuple[float, float]]] = field(
        default_factory=lambda: {kind: [] for kind in KINDS}
    )
    #: host-speed probes: [(when, thread CPU seconds)]
    probes: List[Tuple[float, float]] = field(default_factory=list)
    #: one (seconds, host factor) per set-up / per crash recovery
    setups: List[Tuple[float, float]] = field(default_factory=list)
    recoveries: List[Tuple[float, float]] = field(default_factory=list)
    duration_s: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: name -> (start, end) on the shared perf_counter axis
    windows: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    #: per-layer counts read from public reports (not from spans)
    counts: Dict[str, float] = field(default_factory=dict)
    #: run lengths and knobs worth recording in the result file
    sizes: Dict[str, Any] = field(default_factory=dict)
    span_files: List[str] = field(default_factory=list)
    #: applies are sent on a schedule: their rate is the schedule's, whatever
    #: the host's speed, and is reported as measured
    open_loop: bool = False
    #: kinds whose times do not follow the probe and are reported as measured
    #: (``flat_inproc``'s full read: see ``FlatScenario.unscaled``)
    unscaled: Tuple[str, ...] = ()
    _probed_at: float = 0.0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record(self, kind: str, seconds: float, ended: Optional[float] = None) -> None:
        self.samples[kind].append((clock() if ended is None else ended, seconds))

    def seconds(self, kind: str) -> List[float]:
        return [seconds for _, seconds in self.samples[kind]]

    def probe(self, every: float = PROBE_EVERY_S) -> None:
        """Time the host-speed kernel, unless it ran within ``every`` seconds.
        Called between operations by the thread that times them."""
        now = clock()
        if now - self._probed_at >= every:
            self._probed_at = now
            self.probes.append((now, probe_once()))

    def host_factor(self, start: float, end: float, minimum: int = 2) -> Optional[float]:
        """How much slower than the reference the host ran in [start, end):
        the median probe there over :data:`REFERENCE_PROBE_S`; ``None`` with
        fewer than ``minimum`` probes."""
        inside = [seconds for at, seconds in self.probes if start <= at < end]
        if len(inside) < minimum:
            return None
        return statistics.median(inside) / REFERENCE_PROBE_S

    def timed_with_host(self, call: Any) -> Tuple[Any, Tuple[float, float]]:
        """Run ``call`` — a set-up or a recovery, one long wait — between two
        bursts of probes; returns its result and (seconds, host factor)."""
        burst = [probe_once() for _ in range(3)]
        started = clock()
        result = call()
        seconds = clock() - started
        burst += [probe_once() for _ in range(3)]
        return result, (seconds, statistics.median(burst) / REFERENCE_PROBE_S)

    def attempt(self, operations: int = 1) -> None:
        """Count attempted operations (the served workloads call this from
        two generator threads)."""
        with self._lock:
            self.attempted += operations

    def fail(self, message: str, operations: int = 1) -> None:
        """Count failed operations; they also stay out of every latency list."""
        with self._lock:
            self.failed += operations
            if len(self.errors) < 20:
                self.errors.append(message)


def work_dir(tag: str) -> str:
    path = os.path.join(WORK_ROOT, f"{os.getpid()}-{tag}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def remove_work_dirs() -> None:
    """Drop this process's scratch directories (and the root once empty)."""
    prefix = f"{os.getpid()}-"
    if os.path.isdir(WORK_ROOT):
        for name in os.listdir(WORK_ROOT):
            if name.startswith(prefix):
                shutil.rmtree(os.path.join(WORK_ROOT, name), ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------- #
# In-process reads
# --------------------------------------------------------------------------- #
def read_round(phase: Phase, views: Sequence[Any], round_index: int, tracer: Any) -> None:
    """One full / paged / unchanged read of every view, timed per kind.

    ``full`` calls ``result()`` first after a write — it pays the freeze or
    the unshredding — and walks every pair; ``page`` slices 200 pairs of the
    now-cached snapshot (what the server's paged GET does) at eight offsets
    spread over its first 5 000 pairs, rotated per round, and reports their
    mean;
    ``unchanged`` is the repeated ``result()`` whose identity with the
    previous snapshot is the in-process form of a 304.
    """
    snapshots = []
    with tracer.span("op.read_full"):
        started = clock()
        for view in views:
            bag = view.result()
            cardinality = 0
            for _, multiplicity in bag.items():
                cardinality += multiplicity
            snapshots.append(bag)
        phase.record("read_full", clock() - started)

    with tracer.span("op.read_page"):
        started = clock()
        for view in views:
            bag = view.result()
            size = max(1, min(PAGE_WINDOW, bag.distinct_size()))
            for step in range(PAGE_SWEEP):
                start = (round_index * PAGE_ROWS + step * size // PAGE_SWEEP) % size
                list(islice(bag.items(), start, start + PAGE_ROWS))
        phase.record("read_page", (clock() - started) / PAGE_SWEEP)

    with tracer.span("op.read_304"):
        started = clock()
        for _ in range(UNCHANGED_BATCH):
            for view, snapshot in zip(views, snapshots):
                if view.result() is not snapshot:
                    phase.fail(f"{phase.workload}: unchanged view returned a new snapshot")
        phase.record("read_304", (clock() - started) / UNCHANGED_BATCH)
    phase.attempt(3)


# --------------------------------------------------------------------------- #
# Samples -> end-to-end metrics
# --------------------------------------------------------------------------- #
def timed_setup(phase: Phase, build: Any) -> Any:
    built, timing = phase.timed_with_host(build)
    phase.setups.append(timing)
    return built


def _quiet(values: Sequence[float], better: str) -> float:
    """The quartile of per-window values on the ``better`` side.  What is
    left after the host-speed correction is one-sided — a window that
    straddles a clock change, a neighbour's burst through the shared cache —
    so the quieter windows, not the middle ones, say what the code costs.
    A change to the code moves every window, and the quartile with them."""
    if len(values) < 4:
        return statistics.median(values)
    low, _, high = statistics.quantiles(values, n=4)
    return low if better == "lower" else high


def _windowed(
    phase: Phase, kinds: Sequence[str], per_window: int, better: str, reduce: Any
) -> Tuple[float, float]:
    """One metric over the measured phase, two ways: ``(at reference host
    speed, as measured)``.

    As measured: ``reduce(seconds of every sample, length of the phase)``.
    At reference speed: the phase is cut into equal windows (about
    :data:`WINDOW_S` long, longer where that leaves fewer than ``per_window``
    samples each), ``reduce`` is taken per window and scaled by the window's
    host factor — a time divided, a rate multiplied — and the windows'
    :func:`_quiet` quartile is reported.
    """
    start, end = phase.windows["measure"]
    samples = sorted(sample for kind in kinds for sample in phase.samples[kind])
    if not samples:
        return 0.0, 0.0
    lower = better == "lower"
    scaled = not set(kinds) <= set(phase.unscaled)
    measured = reduce([seconds for _, seconds in samples], end - start)
    count = max(1, min(int((end - start) / WINDOW_S), len(samples) // per_window))
    span = (end - start) / count
    values = []
    for index in range(count):
        low, high = start + index * span, start + (index + 1) * span
        inside = [seconds for at, seconds in samples if low <= at < high]
        factor = phase.host_factor(low, high) if scaled else 1.0
        if inside and factor is not None:
            value = reduce(inside, span)
            values.append(value / factor if lower else value * factor)
    if not values:  # a phase too short to hold two probes per window
        factor = (phase.host_factor(start, end, minimum=1) if scaled else None) or 1.0
        return (measured / factor if lower else measured * factor), measured
    return _quiet(values, better), measured


def _p50_ms(seconds: List[float], _span: float) -> float:
    return statistics.median(seconds) * 1e3


def _p95_ms(seconds: List[float], _span: float) -> float:
    return percentile(seconds, 95) * 1e3


def _per_second(seconds: List[float], span: float) -> float:
    return len(seconds) / span


def _median_scaled(timings: List[Tuple[float, float]]) -> Tuple[float, float]:
    """(at reference host speed, as measured) median of (seconds, factor)s."""
    if not timings:
        return 0.0, 0.0
    return (
        statistics.median(seconds / factor for seconds, factor in timings),
        statistics.median(seconds for seconds, _ in timings),
    )


def end_to_end(phase: Phase) -> Dict[str, Tuple[float, float]]:
    """All twelve end-to-end metrics as ``(at reference host speed, as
    measured)``; the three that do not apply to a workload are 0."""
    return {
        "setup_s": _median_scaled(phase.setups),
        "updates_per_s": (
            (len(phase.samples["apply"]) / phase.duration_s,) * 2
            if phase.open_loop
            else _windowed(phase, ["apply"], PER_WINDOW_P50, "higher", _per_second)
        ),
        "apply_p50_ms": _windowed(phase, ["apply"], PER_WINDOW_P50, "lower", _p50_ms),
        "apply_p95_ms": _windowed(phase, ["apply"], PER_WINDOW_P95, "lower", _p95_ms),
        "reads_per_s": _windowed(phase, READ_KINDS, PER_WINDOW_P50, "higher", _per_second),
        "read_full_p50_ms": _windowed(phase, ["read_full"], PER_WINDOW_P50, "lower", _p50_ms),
        "read_page_p50_ms": _windowed(phase, ["read_page"], PER_WINDOW_P50, "lower", _p50_ms),
        "read_304_p50_ms": _windowed(phase, ["read_304"], PER_WINDOW_P50, "lower", _p50_ms),
        "peak_rss_mb": (phase.peak_rss_mb, phase.peak_rss_mb),
        "replica_visible_p50_ms": _windowed(
            phase, ["replica_visible"], PER_WINDOW_P50, "lower", _p50_ms
        ),
        "recover_s": _median_scaled(phase.recoveries),
        "failed_share": (phase.failed / max(1, phase.attempted),) * 2,
    }


def overhead_ratio(traced: Phase, untraced: Phase) -> float:
    """``trace.overhead_ratio``: operations (applies + reads) per second of
    the traced run ÷ the untraced run before it, each at reference host
    speed (updates alone are pinned at the schedule's rate on the open loop)."""

    def rate(phase: Phase) -> float:
        kinds = ("apply",) + READ_KINDS
        return _windowed(phase, kinds, PER_WINDOW_P50, "higher", _per_second)[0]

    return rate(traced) / rate(untraced)


def sample_counts(phase: Phase) -> Dict[str, int]:
    counts = {kind: len(samples) for kind, samples in phase.samples.items()}
    counts.update(setup=len(phase.setups), recover=len(phase.recoveries), probes=len(phase.probes))
    return counts


# --------------------------------------------------------------------------- #
# Spans -> per-layer metrics and shares
# --------------------------------------------------------------------------- #
#: Per-layer ``*_s`` metrics that are read in a window other than ``measure``.
_WINDOW_OF = {
    "engine.view_register_s": "setup",
    "nrc.compile.compile_s": "setup",
    "durability.replay_s": "recover",
    "durability.checkpoint_write_s": "recover",
}


def analyse_spans(phase: Phase, spans: List[dict]) -> Dict[str, Any]:
    """Exclusive time per span name per window, span counts in ``measure``,
    and — per kind of measured operation (``op.apply``, ``op.read_full``, …)
    — the share of its wall time each span name accounts for."""
    ops = tracing.group_ops(spans)
    totals: Dict[str, Dict[str, float]] = {name: {} for name in phase.windows}
    calls: Dict[str, int] = {}
    op_wall: Dict[str, float] = {}
    op_times: Dict[str, Dict[str, float]] = {}
    worst_excess = 0.0
    for op_spans in ops.values():
        split = tracing.exclusive_times(op_spans)
        if split is None:
            continue
        root, times = split
        wall = root["end"] - root["start"]
        worst_excess = max(worst_excess, sum(times.values()) - wall)
        window = next(
            (name for name, (lo, hi) in phase.windows.items() if lo <= root["start"] < hi),
            None,
        )
        if window is None:
            continue
        bucket = totals[window]
        for name, seconds in times.items():
            bucket[name] = bucket.get(name, 0.0) + seconds
        if window == "measure":
            for span in op_spans:
                calls[span["name"]] = calls.get(span["name"], 0) + 1
            if root["name"].startswith("op."):
                op_wall[root["name"]] = op_wall.get(root["name"], 0.0) + wall
                bucket = op_times.setdefault(root["name"], {})
                for name, seconds in times.items():
                    bucket[name] = bucket.get(name, 0.0) + seconds
    span_shares = {
        op: {name: seconds / op_wall[op] for name, seconds in sorted(times.items())}
        for op, times in sorted(op_times.items())
    }
    shares: Dict[str, float] = {}
    for name, share in span_shares.get("op.apply", {}).items():
        layer = layers.layer_of(name)
        shares[layer] = shares.get(layer, 0.0) + share
    return {
        "totals": totals,
        "calls": calls,
        "span_shares": span_shares,
        "apply_shares": dict(sorted(shares.items())),
        "attributed_share": 1.0 - shares.get(layers.UNATTRIBUTED, 0.0) if shares else 0.0,
        "self_time_excess_s": worst_excess,
        "ops": len(ops),
        "spans": len(spans),
    }


def per_layer(
    phase: Phase, analysis: Dict[str, Any], extra: Dict[str, float]
) -> Dict[str, float]:
    """Every per-layer metric: span seconds and calls from the analysis,
    report and socket counts from the phase, ``extra`` from the caller."""
    values: Dict[str, float] = {name: 0.0 for name in registry().per_layer}
    totals, calls = analysis["totals"], analysis["calls"]
    for name in values:
        if name.endswith("_s") and (
            name[:-2] in layers.SPANS or name[:-2] in layers.CUSTOM_SPANS
        ):
            window = _WINDOW_OF.get(name, "measure")
            values[name] = totals.get(window, {}).get(name[:-2], 0.0)
    values["nrc.compile.evaluate_calls"] = calls.get("nrc.compile.evaluate", 0)
    values["serve.ingest.batches"] = calls.get("serve.ingest.batch", 0)
    published = calls.get("serve.sessions.publish_snapshot", 0)
    values["serve.sessions.snapshots_published"] = published
    encodes = calls.get("serve.protocol.encode_bag", 0) + calls.get("serve.protocol.encode_page", 0)
    values["serve.protocol.encode_calls_per_version"] = encodes / published if published else 0.0
    applies, lateness = phase.seconds("apply"), phase.seconds("lateness")
    values["client.apply_p99_ms"] = percentile(applies, 99) * 1e3 if applies else 0.0
    values["client.lateness_p50_ms"] = statistics.median(lateness) * 1e3 if lateness else 0.0
    values.update(phase.counts)
    values.update(extra)
    unknown = set(values) - set(registry().per_layer)
    if unknown:
        raise KeyError(f"per-layer metrics outside BENCHMARK.json: {sorted(unknown)}")
    return values


# --------------------------------------------------------------------------- #
# Counts out of the public report dicts
# --------------------------------------------------------------------------- #
def storage_counts(report: Dict[str, Any]) -> Dict[str, float]:
    """Index, freeze, label and dictionary-probe counts of one
    ``Engine.storage_report()``."""
    hits = rebuilds = freezes = 0
    for kind in ("nested", "flat"):
        for store in report[kind]["stores"]:
            freezes += store["snapshot_freezes"]
            for index in store["indexes"]:
                hits += index["hits"]
                rebuilds += index["rebuilds"]
    for store in report["results"]["stores"]:
        freezes += store["snapshot_freezes"]
    labels = sum(entry["labels"] for entry in report["dictionaries"]["stores"])
    touched = sum(
        entry.get("probes", {}).get("dict_probes", 0) for entry in report["read_path"]
    )
    return {
        "storage.index_probes": hits + rebuilds,
        "storage.index_hits": hits,
        "storage.index_rebuilds": rebuilds,
        "storage.snapshot_freezes": freezes,
        "shredding.labels_live": labels,
        "dictionaries.entries_touched": touched,
    }


def counts_delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    """Counter growth over a window; ``labels_live`` is a level, not a
    counter, and keeps its end value."""
    return {
        name: value if name == "shredding.labels_live" else value - before.get(name, 0)
        for name, value in after.items()
    }
