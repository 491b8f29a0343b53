"""The layer table: which public callables each span wraps.

Tracing lives entirely on this side of the fence — nothing under ``src/``
knows about it.  :func:`install` monkeypatches the callables listed in
:data:`SPANS` (and the few in :func:`_install_custom` that need a look at
their arguments) so every call records a span named after the per-layer
metric it feeds: span ``durability.wal_sync`` becomes metric
``durability.wal_sync_s``.  A callable imported by name elsewhere
(``from repro.serve.protocol import decode_update``) is patched at every
site listed for it.

A span's *layer* is the top-level group the traced-run shares are reported
by; ``unattributed`` collects the harness's own op spans and time an
operation spends blocked with no traced layer running on its behalf.
"""

from __future__ import annotations

import importlib
from typing import Any, Dict, List, Tuple

from .tracing import TRACE_HEADER, Tracer, bind_ambient, clock, traced

#: span name -> [(module, dotted attribute path), ...]
SPANS: Dict[str, List[Tuple[str, str]]] = {
    "serve.protocol.decode_update": [
        ("repro.serve.protocol", "decode_update"),
        ("repro.serve.server", "decode_update"),
    ],
    "serve.ingest.submit": [("repro.serve.ingest", "IngestWorker.submit")],
    "serve.sessions.publish_snapshot": [
        ("repro.serve.sessions", "TenantSession.publish_snapshot")
    ],
    "durability.encode_record": [
        ("repro.durability.records", "encode_update_record"),
        ("repro.durability.manager", "encode_update_record"),
    ],
    "durability.wal_append": [("repro.durability.wal", "WriteAheadLog.append")],
    "durability.wal_sync": [("repro.durability.wal", "WriteAheadLog.sync")],
    "durability.checkpoint_write": [
        ("repro.durability.checkpoint", "write_checkpoint"),
        ("repro.durability.manager", "write_checkpoint"),
    ],
    "durability.replay": [
        ("repro.durability.manager", "DurabilityManager.open_and_recover")
    ],
    "replication.read_frames": [
        ("repro.replication.feed", "read_frames"),
        ("repro.serve.sessions", "read_frames"),
    ],
    "replication.mirror_append": [
        ("repro.replication.feed", "append_mirror_frames"),
        ("repro.serve.sessions", "append_mirror_frames"),
    ],
    "replication.apply_replicated": [("repro.engine.core", "Engine.apply_replicated")],
    "engine.apply": [
        ("repro.engine.core", "Engine.apply"),
        ("repro.engine.core", "Engine.apply_stream"),
    ],
    "engine.view_register": [("repro.engine.core", "Engine.view")],
    "ivm.shred_update": [("repro.ivm.database", "Database.shred_update")],
    # Exclusive time of apply_update = refresh-context build, view dispatch,
    # dictionary-store fold and deep re-nesting; its children (shredding,
    # refreshes, relation-store deltas) carry their own spans.
    "ivm.store_apply": [("repro.ivm.database", "Database.apply_update")],
    "ivm.naive.refresh": [("repro.ivm.naive", "NaiveView.on_update")],
    "ivm.classic.refresh": [("repro.ivm.classic", "ClassicIVMView.on_update")],
    "ivm.recursive.refresh": [("repro.ivm.recursive", "RecursiveIVMView.on_update")],
    "ivm.nested.refresh": [("repro.ivm.nested", "NestedIVMView.on_update")],
    # One store's delta, on whichever execution backend the engine resolved.
    "storage.relation_apply_delta": [
        ("repro.engine.scheduler", "SerialExecutionBackend.apply_delta"),
        ("repro.engine.scheduler", "ThreadExecutionBackend.apply_delta"),
        ("repro.engine.scheduler", "ProcessExecutionBackend.apply_delta"),
        ("repro.engine.scheduler", "SubinterpreterExecutionBackend.apply_delta"),
    ],
    "storage.result_apply_bag": [("repro.storage.results", "ResultStore.apply_bag")],
    "storage.result_freeze": [("repro.storage.results", "ResultStore.freeze")],
    "nrc.compile.evaluate": [("repro.nrc.compile", "CompiledQuery.evaluate")],
    "nrc.compile.compile": [("repro.nrc.compile", "CompiledQuery.__init__")],
    "shredding.shred_bag": [("repro.shredding.shred_values", "ValueShredder.shred_bag")],
    "shredding.unshred_bag": [
        ("repro.shredding.shred_values", "unshred_bag"),
        ("repro.shredding", "unshred_bag"),
        ("repro.shredding.shred_query", "unshred_bag"),
        ("repro.ivm.nested", "unshred_bag"),
    ],
}

#: Spans recorded by the custom wrappers below and by the harness itself.
CUSTOM_SPANS = (
    "client.request",
    "serve.http.handler",
    "serve.http.feed_longpoll",
    "serve.protocol.encode_bag",
    "serve.protocol.encode_page",
    "serve.ingest.queue_wait",
    "serve.ingest.batch",
    "serve.ingest.coalesced",
    "serve.ingest.control",
    "wait.ack",
)

#: Top-level layers, longest prefix first.
LAYERS = (
    "client",
    "serve",
    "durability",
    "replication",
    "engine",
    "ivm",
    "storage",
    "nrc.compile",
    "shredding",
)
UNATTRIBUTED = "unattributed"


def layer_of(span_name: str) -> str:
    """The share-reporting layer of a span (``unattributed`` for harness op
    spans, ack waits and the feed long-poll's parked time)."""
    if span_name == "serve.http.feed_longpoll":
        return UNATTRIBUTED
    for layer in LAYERS:
        if span_name == layer or span_name.startswith(layer + "."):
            return layer
    return UNATTRIBUTED


# --------------------------------------------------------------------------- #
def _resolve(module_name: str, path: str) -> Tuple[Any, str, Any]:
    owner: Any = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attribute, getattr(owner, attribute)


def install(tracer: Tracer) -> None:
    """Patch every listed callable of this process to record spans."""
    wrapped: Dict[int, Any] = {}
    for span_name, sites in SPANS.items():
        for module_name, path in sites:
            owner, attribute, original = _resolve(module_name, path)
            # One wrapper per original, so every alias of a function stays
            # the same object after patching.
            key = id(original)
            if key not in wrapped:
                wrapped[key] = traced(tracer, span_name, original)
            setattr(owner, attribute, wrapped[key])
    _install_custom(tracer)


def _install_custom(tracer: Tracer) -> None:
    from repro.client.api import APIClient
    from repro.engine.scheduler import ViewRefreshScheduler
    from repro.serve import ingest, protocol, server

    # -- client: one span per logical request; the header carries it across.
    request = APIClient.request

    def traced_request(self, method, path, body=None, headers=None):
        span = tracer.begin("client.request")
        try:
            headers = dict(headers or {})
            headers[TRACE_HEADER] = tracer.gid(span[0])
            return request(self, method, path, body, headers)
        finally:
            tracer.end(span)

    APIClient.request = traced_request

    # -- HTTP handler: from the first byte of the request line to the last
    # of the response.  Parent and name are only known once the request is
    # parsed, so they are filled in before the span closes.
    class _CountingWriter:
        def __init__(self, raw: Any) -> None:
            self.raw = raw
            self.written = 0

        def write(self, data: bytes) -> int:
            self.written += len(data)
            return self.raw.write(data)

        def __getattr__(self, name: str) -> Any:
            return getattr(self.raw, name)

    handle_one_request = server._Handler.handle_one_request

    def traced_handle_one_request(self) -> None:
        span = tracer.begin("serve.http.handler")
        writer = self.wfile = _CountingWriter(self.wfile)
        try:
            handle_one_request(self)
        finally:
            self.wfile = writer.raw
            if not getattr(self, "raw_requestline", b""):
                tracer.discard(span)  # the peer closed an idle connection
            else:
                headers = getattr(self, "headers", None) or {}
                span[4] = headers.get(TRACE_HEADER)
                if self.path.split("?", 1)[0].endswith("/wal"):
                    span[1] = "serve.http.feed_longpoll"
                tracer.end(span)
                tracer.count("serve.http.requests")
                tracer.count("serve.http.bytes_in", int(headers.get("Content-Length") or 0))
                tracer.count("serve.http.bytes_out", writer.written)

    server._Handler.handle_one_request = traced_handle_one_request

    # -- wire encode: full bodies and pages are separate metrics.
    encode_bag_page = protocol.encode_bag_page

    def traced_encode(bag, limit=None, offset=0):
        paged = limit is not None or bool(offset)
        span = tracer.begin(
            "serve.protocol.encode_page" if paged else "serve.protocol.encode_bag"
        )
        try:
            return encode_bag_page(bag, limit, offset)
        finally:
            tracer.end(span)

    protocol.encode_bag_page = server.encode_bag_page = traced_encode

    # -- ingest: the writer thread's work hangs under the ack wait of the
    # handler that submitted it, so a blocked handler's time is attributed
    # to the batch (or the queue wait) it is blocked on.
    pending: Dict[int, Tuple[int, float]] = {}  # id(command | payload) -> (wait span id, enqueue time)
    submit = ingest.IngestWorker.submit  # already span-wrapped by SPANS

    def traced_submit(self, command):
        entry = (tracer.new_id(), clock())
        if command.kind == "apply":
            pending[id(command.payload)] = entry
        else:
            command.run = _control(command.run, entry[0])
        pending[id(command)] = entry
        try:
            return submit(self, command)
        except BaseException:
            pending.pop(id(command), None)
            pending.pop(id(command.payload), None)
            raise

    def _control(run, wait_id):
        def traced_run():
            span = tracer.begin("serve.ingest.control", wait_id)
            try:
                return run()
            finally:
                tracer.end(span)

        return traced_run

    ingest.IngestWorker.submit = traced_submit

    result = ingest.Command.result

    def traced_result(self, timeout=None):
        entry = pending.pop(id(self), None)
        if entry is None:
            return result(self, timeout)
        span = tracer.begin("wait.ack", span_id=entry[0])
        try:
            return result(self, timeout)
        finally:
            tracer.end(span)

    ingest.Command.result = traced_result

    worker_init = ingest.IngestWorker.__init__

    def traced_worker_init(self, name, *, apply_batch, **kwargs):
        def traced_batch(updates):
            started = clock()
            entries = [pending.pop(id(update), None) for update in updates]
            for entry in entries:
                if entry is not None:
                    tracer.record("serve.ingest.queue_wait", entry[1], started, entry[0])
            span = tracer.begin("serve.ingest.batch", entries[0] and entries[0][0])
            try:
                return apply_batch(updates)
            finally:
                tracer.end(span)
                for entry in entries[1:]:
                    if entry is not None:
                        tracer.record("serve.ingest.coalesced", started, span[3], entry[0])

        worker_init(self, name, apply_batch=traced_batch, **kwargs)

    ingest.IngestWorker.__init__ = traced_worker_init

    # -- view refresh pool: tasks inherit the dispatching span.
    run = ViewRefreshScheduler.run

    def traced_run_tasks(self, tasks):
        parent = tracer.parent_here()
        return run(self, [bind_ambient(tracer, task, parent) for task in tasks])

    ViewRefreshScheduler.run = traced_run_tasks
