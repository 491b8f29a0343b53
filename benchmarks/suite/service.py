"""The two served workloads: ``serve_write_durable`` and ``serve_read_mixed``.

The system under test runs in launcher subprocesses (:mod:`.served`), so
generator and server never share a GIL; the generator is this process, with
two threads and at most two requests in flight.  Everything goes through
the SDK (``repro.client``) and the JSON wire protocol.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from itertools import chain
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.bag.bag import Bag
from repro.client import (
    APIClient,
    APIError,
    DatasetsClient,
    ReplicationClient,
    ServerClient,
    UpdatesClient,
    ViewsClient,
)
from repro.ivm.updates import Update
from repro.serve.protocol import (
    decode_delta,
    encode_value,
    query_from_spec,
    record_from_spec,
)
from repro.surface.dsl import Dataset

from . import harness, oracle
from .gen import balanced_movies, churn_stream
from .harness import PAGE_ROWS, Phase, clock
from .served import Served

TENANT = "bench"
MOVIE_FIELDS = ["name", "gen", "dir"]
BATCH_ROWS = 4
#: Applies sent (and acknowledged) before the clock starts.
WARMUP_APPLIES = 10
#: serve_write_durable: writer 0 checks the replica after every Nth ack.
VISIBILITY_EVERY = 10
#: A conditional read races the next shipped batch; retry it this often.
CONDITIONAL_ATTEMPTS = 3
#: serve_write_durable: records appended after the checkpoint, before the crash.
TAIL_APPLIES = 400
#: serve_read_mixed: the writer's open-loop schedule.
WRITES_PER_SECOND = 10.0

_M = ["field", "m", "name"]


def _filter_spec(column: str, value: str) -> Dict[str, Any]:
    return {
        "from": "M",
        "var": "m",
        "where": ["eq", ["field", "m", column], ["const", value]],
        "select": [_M],
    }


def _related_spec(director: str) -> Dict[str, Any]:
    """Example 1's ``related``, restricted to one director's movies."""
    inner = {
        "from": "M",
        "var": "m2",
        "where": [
            "and",
            ["ne", _M, ["field", "m2", "name"]],
            [
                "or",
                ["eq", ["field", "m", "gen"], ["field", "m2", "gen"]],
                ["eq", ["field", "m", "dir"], ["field", "m2", "dir"]],
            ],
        ],
        "select": [["field", "m2", "name"]],
    }
    spec = _filter_spec("dir", director)
    spec["select"] = [_M, ["nest", inner]]
    return spec


#: workload -> [(view name, query spec, strategy)]
VIEWS: Dict[str, List[Tuple[str, Dict[str, Any], str]]] = {
    "serve_write_durable": [
        ("dramas", _filter_spec("gen", "Drama"), "classic"),
        ("by_director", _filter_spec("dir", "Director7"), "recursive"),
    ],
    "serve_read_mixed": [
        ("all_names", {"from": "M", "var": "m", "select": [_M]}, "classic"),
        ("related", _related_spec("Director7"), "nested"),
    ],
}
MOVIES = {"serve_write_durable": 2000, "serve_read_mixed": 5000}
#: 200 directors keep ``related`` (one director's ~25 movies, each with the
#: ~650 movies it is related to) cheap enough to unshred that ten publishes
#: a second leave the server's interpreter lock mostly free: with the
#: default 40 the ingest thread alone needs a whole core, the reader's
#: handlers fight it for the GIL, and every latency becomes a function of
#: thread scheduling rather than of the code.
DIRECTORS = {"serve_write_durable": 40, "serve_read_mixed": 400}


# --------------------------------------------------------------------------- #
class Writer:
    """One SDK writer drawing 4-row batches from its own endless stream."""

    def __init__(self, url: str, stream: Iterator[Update]) -> None:
        self.api = APIClient(url)
        self.client = UpdatesClient(self.api, TENANT)
        self.stream = stream
        self.acked: List[Update] = []
        self.version = 0
        self.user_bytes = 0
        self._next: Optional[Tuple[Update, Dict[str, Any]]] = None

    def prepare(self) -> None:
        """Draw and wire-encode the next batch — the generator's own work,
        kept outside the timed send.  A batch whose send failed stays next."""
        if self._next is None:
            update = next(self.stream)
            body = {
                name: {"pairs": [[encode_value(row), m] for row, m in delta.items()]}
                for name, delta in update.relations.items()
            }
            self._next = (update, body)

    def send(self) -> int:
        """Send the prepared batch synchronously; returns the acked version."""
        update, body = self._next
        response = self.client.apply(body)
        self._next = None
        self.acked.append(update)
        self.user_bytes += len(json.dumps(body))
        self.version = response["results"][-1]["version"]
        return self.version


def _streams(seed: int, movies: Bag, writers: int) -> List[Iterator[Update]]:
    """Per-writer streams of 4-row batches, two insertions and two deletions
    each, so the relation — and with it result sizes, resident memory and
    checkpoint size — stays put however many batches a run gets through.
    Each writer deletes only from its own slice of the seeded instance and
    its own earlier inserts, so no row is ever deleted twice."""
    rows = sorted(movies.elements())
    return [
        churn_stream(seed + index, Bag(rows[index::writers]), BATCH_ROWS, 0.5, f"W{index}-")
        for index in range(writers)
    ]


class Topology:
    """The served system of one run: a primary, optionally its replica."""

    def __init__(self, name: str, seed: int, traced: bool, tag: str):
        self.name = name
        self.traced = traced
        self.durable = name == "serve_write_durable"
        self.dir = harness.work_dir(tag)
        rng = random.Random(seed)
        self.movies = balanced_movies(MOVIES[name], rng.randrange(1 << 30), DIRECTORS[name])
        writers = 2 if self.durable else 1
        self.streams = _streams(rng.randrange(1 << 30), self.movies, writers)
        self.primary: Optional[Served] = None
        self.replica: Optional[Served] = None
        self.processes: List[Served] = []
        self.writers: List[Writer] = []

    def spawn(self, role: str, **options: Any) -> Served:
        tag = f"{role[0]}{len(self.processes)}"
        served = Served(
            trace_tag=tag if self.traced else None,
            dump_path=os.path.join(self.dir, f"{tag}.json") if self.traced else None,
            **options,
        )
        self.processes.append(served)
        return served

    def setup(self) -> None:
        """Spawn, seed, register views, wait until the replica caught up."""
        data_dir = os.path.join(self.dir, "primary-data") if self.durable else None
        self.primary = self.spawn("primary", data_dir=data_dir)
        api = APIClient(self.primary.url)
        rows = [list(row) for row in sorted(self.movies.elements())]
        DatasetsClient(api, TENANT).create("M", MOVIE_FIELDS, rows)
        views = ViewsClient(api, TENANT)
        for view, spec, strategy in VIEWS[self.name]:
            version = views.create(view, spec, strategy)["version"]
        if self.durable:
            self.replica = self.spawn(
                "replica",
                data_dir=os.path.join(self.dir, "replica-data"),
                replica_of=self.primary.url,
            )
            wait_for_version(self.replica.url, VIEWS[self.name][-1][0], version, 30.0)
        self.writers = [Writer(self.primary.url, stream) for stream in self.streams]

    def teardown(self) -> None:
        # Signal everything, then reap: the replica's link sits in a long
        # poll that the primary releases as soon as it starts closing, so
        # the two drain side by side.
        for served in self.processes:
            served.terminate()
        for served in self.processes:
            served.wait()

    def peak_rss_mb(self) -> float:
        return max(served.peak_rss_mb for served in self.processes)

    def model(self) -> Dict[str, Bag]:
        """Seeded instance ⊎ every acknowledged batch."""
        deltas = (update.relations["M"] for writer in self.writers for update in writer.acked)
        return {"M": Bag.from_pairs(chain(self.movies.items(), *(d.items() for d in deltas)))}

    def final_version(self) -> int:
        return max(writer.version for writer in self.writers)

    def expected(self) -> Dict[str, Bag]:
        """What the interpreter makes of every view over :meth:`model`."""
        model = self.model()
        dataset = {"M": Dataset("M", record_from_spec("M", MOVIE_FIELDS))}
        return {
            view: oracle.interpret(query_from_spec(spec, dataset).to_expr(), model)
            for view, spec, _ in VIEWS[self.name]
        }

    def check(self, phase: Phase, url: str, who: str, expected: Dict[str, Bag]) -> None:
        """Compare every view served at ``url`` with ``expected``.

        An ack is sent before the batch's snapshot is published, so a read
        issued right after the last ack may still see the version before
        it: wait for the acknowledged version first.
        """
        try:
            wait_for_version(url, VIEWS[self.name][0][0], self.final_version(), 20.0)
        except RuntimeError as error:
            phase.fail(f"{who}: acknowledged writes not served: {error}")
        views = ViewsClient(APIClient(url), TENANT)
        for view, want in expected.items():
            got = decode_delta({"pairs": views.show(view)["pairs"]})
            for message in oracle.mismatches(f"{who}/{view}", got, want):
                phase.fail(message)
            phase.attempt(1)


def wait_for_version(url: str, view: str, version: int, timeout: float) -> None:
    """Poll until ``url`` serves ``view`` at ``version`` or later."""
    views = ViewsClient(APIClient(url), TENANT)
    deadline = time.monotonic() + timeout
    while True:
        try:
            if views.show(view, limit=1)["version"] >= version:
                return
        except APIError as error:
            # A replica has no such view (404) until the record ships.
            if error.status not in (404, 503, 0):
                raise
        if time.monotonic() > deadline:
            raise RuntimeError(f"{url} did not reach version {version} within {timeout}s")
        time.sleep(0.005)


def wait_recovered(url: str, timeout: float) -> None:
    """Poll ``/health`` until the tenant is listed and nothing is recovering."""
    server = ServerClient(APIClient(url, max_retries=0))
    deadline = time.monotonic() + timeout
    while True:
        try:
            health = server.health()
            if health["status"] == "ok" and TENANT in health["tenants"]:
                return
        except APIError:
            pass
        if time.monotonic() > deadline:
            raise RuntimeError(f"{url} not healthy within {timeout}s")
        time.sleep(0.005)


def _conditional_read(phase: Phase, tracer: Any, views: ViewsClient, view: str, version: int) -> None:
    """A GET with ``If-None-Match``.  When a newer version was published in
    between, the answer is a full body: that sample is a full read, and the
    conditional read is retried against the version it returned."""
    for _ in range(CONDITIONAL_ATTEMPTS):
        answer, seconds = _timed(phase, tracer, "op.read_304", lambda: views.show(view, etag=version))
        if answer.get("not_modified"):
            phase.record("read_304", seconds)
            return
        phase.record("read_full", seconds)
        version = answer["version"]


def _timed(phase: Phase, tracer: Any, op: str, call: Callable[[], Any]) -> Tuple[Any, float]:
    """One read under a root span, counted as attempted; returns its answer
    and how long it took (the caller knows which kind of read it was)."""
    phase.attempt(1)
    with tracer.span(op):
        started = clock()
        result = call()
        seconds = clock() - started
    return result, seconds


def _read_cycle(phase: Phase, tracer: Any, views: ViewsClient, view: str, cycle: int) -> None:
    """One full, one paged (rotating offset) and one conditional read."""
    full, seconds = _timed(phase, tracer, "op.read_full", lambda: views.show(view))
    phase.record("read_full", seconds)
    offset = (cycle * PAGE_ROWS) % max(1, full["distinct"])
    _, seconds = _timed(
        phase, tracer, "op.read_page",
        lambda: views.show(view, limit=PAGE_ROWS, offset=offset),
    )
    phase.record("read_page", seconds)
    _conditional_read(phase, tracer, views, view, full["version"])


# --------------------------------------------------------------------------- #
# Report-derived counts
# --------------------------------------------------------------------------- #
def _service_counts(topology: Topology) -> Dict[str, float]:
    stats = ServerClient(APIClient(topology.primary.url)).stats()["tenants"][TENANT]
    ingest = stats["ingest"]
    counts = {
        "serve.ingest.rejected_backpressure": ingest["rejected_backpressure"],
        "applied_updates": ingest["applied_updates"],
        "applied_batches": ingest["applied_batches"],
    }
    wal = (stats["durability"] or {}).get("wal")
    if wal:
        counts["durability.fsyncs"] = wal["syncs"]
        counts["wal_bytes"] = wal["bytes_written"]
    if topology.replica is not None:
        link = ReplicationClient(APIClient(topology.replica.url), TENANT).status()["link"]
        counts["replication.polls"] = link["polls"]
        counts["replication.frames_shipped"] = link["frames_shipped"]
        counts["replication.bytes_shipped"] = link["bytes_shipped"]
    return counts


def _traced_counts(topology: Topology) -> Dict[str, float]:
    """Counts only a traced launcher can give: the primary engine's storage
    and operation counters (from its public reports) and what the tracers
    of primary and replica counted at the socket."""
    counts: Dict[str, float] = {}
    for served in (topology.primary, topology.replica):
        if served is None:
            continue
        served.request_dump()
        with open(served.dump_path, "r", encoding="utf-8") as handle:
            dump = json.load(handle)
        for name, amount in dump["counts"].items():
            counts[name] = counts.get(name, 0) + amount
        if served is topology.primary:
            report = dump["reports"][TENANT]
            counts.update(harness.storage_counts(report["storage"]))
            counts["ivm.update_operations"] = report["update_operations"]
    return counts


def _finish_counts(
    phase: Phase, topology: Topology, before: Dict[str, float], traced_before: Dict[str, float]
) -> None:
    delta = harness.counts_delta(_service_counts(topology), before)
    batches = delta.pop("applied_batches")
    updates = delta.pop("applied_updates")
    wal_bytes = delta.pop("wal_bytes", 0)
    user_bytes = sum(writer.user_bytes for writer in topology.writers)
    delta["serve.ingest.updates_per_batch"] = updates / batches if batches else 0.0
    delta["durability.wal_bytes_per_user_byte"] = wal_bytes / user_bytes if user_bytes else 0.0
    delta["client.retries"] = sum(writer.api.retries_performed for writer in topology.writers)
    delta["client.http_429"] = delta["serve.ingest.rejected_backpressure"]
    if topology.traced:
        delta.update(harness.counts_delta(_traced_counts(topology), traced_before))
    phase.counts.update(delta)


# --------------------------------------------------------------------------- #
# serve_write_durable
# --------------------------------------------------------------------------- #
def _write_durable_measure(
    phase: Phase, topology: Topology, seconds: float, tracer: Any
) -> None:
    replica_views = ViewsClient(APIClient(topology.replica.url), TENANT)
    probe_view = VIEWS[topology.name][0][0]
    deadline = clock() + seconds

    def writer_loop(index: int) -> None:
        writer = topology.writers[index]
        rounds = 0
        while clock() < deadline:
            writer.prepare()
            phase.attempt(1)
            started = clock()
            try:
                with tracer.span("op.apply"):
                    version = writer.send()
            except APIError as error:
                phase.fail(f"writer {index}: apply failed: {error}")
                continue
            acked_at = clock()
            phase.record("apply", acked_at - started, acked_at)
            phase.probe()
            if index == 0 and len(writer.acked) % VISIBILITY_EVERY == 0:
                rounds += 1
                _follower_round(version, acked_at, rounds)

    def _follower_round(version: int, acked_at: float, rounds: int) -> None:
        """How long until the replica serves ``version``; then one full, one
        paged and one conditional follower read."""
        phase.attempt(1)
        try:
            with tracer.span("op.replica_visible"):
                while replica_views.show(probe_view, limit=1)["version"] < version:
                    if clock() > acked_at + 10.0:
                        phase.fail(f"replica did not serve version {version} within 10s")
                        return
            phase.record("replica_visible", clock() - acked_at)
        except APIError as error:
            phase.fail(f"replica poll failed: {error}")
            return
        try:
            _read_cycle(phase, tracer, replica_views, probe_view, rounds)
        except APIError as error:
            phase.fail(f"follower read failed: {error}")

    _run_threads(lambda: writer_loop(0), lambda: writer_loop(1))


def _run_threads(*targets: Callable[[], None]) -> None:
    """Run the generator's threads to completion; re-raise the first error."""
    errors: List[BaseException] = []

    def guarded(target: Callable[[], None]) -> None:
        try:
            target()
        except BaseException as error:  # noqa: BLE001 - re-raised below
            errors.append(error)

    threads = [threading.Thread(target=guarded, args=(target,)) for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def _recover(phase: Phase, topology: Topology, repeats: int) -> None:
    """Cut a checkpoint, append a fixed tail of :data:`TAIL_APPLIES` records
    to the log — so every run recovers the same amount of work, whatever
    rate its measured phase reached — then, ``repeats`` times: SIGKILL the
    primary, restart it on the same directory and port, and time it to
    healthy + recovered + serving the last acknowledged version.  Last,
    check restarted primary and replica against the oracle."""
    window_started = clock()
    writer = topology.writers[0]
    phase.attempt(1 + TAIL_APPLIES)
    try:
        written = writer.client.checkpoint()
        phase.counts["durability.checkpoint_bytes"] = sum(
            os.path.getsize(os.path.join(folder, name))
            for folder, _, names in os.walk(written["path"])
            for name in names
        )
        for _ in range(TAIL_APPLIES):
            writer.prepare()
            writer.send()
    except APIError as error:
        phase.fail(f"checkpoint or log tail failed: {error}")
    expected = topology.expected()
    data_dir = os.path.join(topology.dir, "primary-data")

    def restart() -> Served:
        restarted = topology.spawn("restarted", port=old.port, data_dir=data_dir)
        try:
            wait_recovered(restarted.url, 60.0)
            wait_for_version(
                restarted.url, VIEWS[topology.name][0][0], topology.final_version(), 10.0
            )
        except RuntimeError as error:
            phase.fail(f"acknowledged writes lost or recovery stuck: {error}")
        return restarted

    for _ in range(repeats):
        old = topology.primary
        if topology.traced:
            old.request_dump()  # a SIGKILLed process never writes its exit dump
        old.kill()
        phase.attempt(1)
        restarted, timing = phase.timed_with_host(restart)
        topology.primary = restarted
        phase.recoveries.append(timing)
    phase.windows["recover"] = (window_started, clock())
    stats = ServerClient(APIClient(restarted.url)).stats()["tenants"][TENANT]
    recovery = stats["durability"]["recovery"]
    phase.counts["durability.records_replayed"] = recovery["records_replayed"]
    topology.check(phase, restarted.url, "restarted-primary", expected)
    topology.check(phase, topology.replica.url, "replica", expected)


# --------------------------------------------------------------------------- #
# serve_read_mixed
# --------------------------------------------------------------------------- #
def _read_mixed_measure(phase: Phase, topology: Topology, seconds: float, tracer: Any) -> None:
    started = clock()
    deadline = started + seconds
    writer = topology.writers[0]
    reader = ViewsClient(APIClient(topology.primary.url), TENANT)
    view = VIEWS[topology.name][0][0]

    def read_loop() -> None:
        cycle = 0
        while clock() < deadline:
            cycle += 1
            try:
                _read_cycle(phase, tracer, reader, view, cycle)
            except APIError as error:
                phase.fail(f"read failed: {error}")
            phase.probe()

    def write_loop() -> None:
        """Open loop: batch k is due at k / rate whether or not batch k-1 was
        quick; latency runs from the due time."""
        sent = 0
        while True:
            due = started + sent / WRITES_PER_SECOND
            if due >= deadline:
                return
            writer.prepare()
            wait = due - clock()
            if wait > 0:
                time.sleep(wait)
            sent += 1
            phase.record("lateness", max(0.0, clock() - due))
            phase.attempt(1)
            try:
                with tracer.span("op.apply"):
                    writer.send()
                phase.record("apply", clock() - due)
            except APIError as error:
                phase.fail(f"apply failed: {error}")

    _run_threads(read_loop, write_loop)


# --------------------------------------------------------------------------- #
def run(
    name: str, seed: int, seconds: float, tracer: Any, *, traced: bool, repeats: int
) -> Phase:
    """Set up ``repeats`` times, warm up, measure for ``seconds``, check
    against the oracle and (the durable workload) crash and recover
    ``repeats`` times."""
    durable = name == "serve_write_durable"
    phase = Phase(name, open_loop=not durable)
    setup_started = clock()
    topology = None
    try:
        for repeat in range(repeats):
            if topology is not None:
                topology.teardown()
            topology = Topology(name, seed, traced, f"{name}-{repeat}")
            harness.timed_setup(phase, topology.setup)
        for writer in topology.writers:
            for _ in range(WARMUP_APPLIES):
                writer.prepare()
                writer.send()
        before = _service_counts(topology)
        traced_before = _traced_counts(topology) if traced else {}

        measure_started = clock()
        phase.windows["setup"] = (setup_started, measure_started)
        if durable:
            _write_durable_measure(phase, topology, seconds, tracer)
        else:
            _read_mixed_measure(phase, topology, seconds, tracer)
        measure_ended = clock()
        phase.windows["measure"] = (measure_started, measure_ended)
        phase.duration_s = measure_ended - measure_started
        _finish_counts(phase, topology, before, traced_before)
        phase.sizes = {
            "movies": MOVIES[name],
            "directors": DIRECTORS[name],
            "batch_rows": BATCH_ROWS,
            "warmup_applies": WARMUP_APPLIES,
            "writers": len(topology.writers),
            "views": {view: strategy for view, _, strategy in VIEWS[name]},
        }

        topology.check(phase, topology.primary.url, "primary", topology.expected())
        if durable:
            _recover(phase, topology, repeats)
    finally:
        if topology is not None:
            topology.teardown()
            phase.peak_rss_mb = topology.peak_rss_mb()
            phase.span_files = [
                served.dump_path for served in topology.processes if served.dump_path
            ]
    return phase
