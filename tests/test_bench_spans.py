"""The benchmark's span table names callables of ``src/`` by module and
attribute and raises at install time if one is gone.  It cannot be edited by
a change that claims a gain, so tier-1 keeps every site it lists resolvable.
"""

import importlib
import os
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def spans():
    sys.path.insert(0, REPO_ROOT)
    try:
        return importlib.import_module("benchmarks.suite.layers").SPANS
    finally:
        sys.path.remove(REPO_ROOT)


def test_every_span_site_resolves(spans):
    missing = []
    for span_name, sites in spans.items():
        for module_name, path in sites:
            owner = importlib.import_module(module_name)
            for attribute in path.split("."):
                owner = getattr(owner, attribute, None)
            if not callable(owner):
                missing.append(f"{span_name}: {module_name}.{path}")
    assert not missing, missing


def _counting(monkeypatch, module):
    calls = []
    original = module.unshred_bag

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, "unshred_bag", counted)
    return calls


def test_from_scratch_nesting_runs_under_the_patched_names(monkeypatch):
    """The view's and the database's one full build each go through the
    ``unshred_bag`` name the tracer patches (so ``shredding.unshred_bag_s``
    times them) — and nothing after the build does."""
    from repro.bag import Bag
    from repro.ivm import Database, NestedIVMView, Update
    from repro.ivm import nested
    from repro.nrc import ast, builders as build
    from repro.nrc.types import BASE, bag_of
    from repro.shredding import shred_values
    from repro.shredding.shred_database import input_dict_name

    schema = bag_of(bag_of(BASE))
    database = Database()
    database.register("R", schema, Bag([Bag(["a"]), Bag(["b"])]))
    view = NestedIVMView(
        build.for_in("x", ast.Relation("R", schema), ast.SngVar("x")), database
    )
    view_calls = _counting(monkeypatch, nested)
    database_calls = _counting(monkeypatch, shred_values)

    assert view.result() == database.relation("R")
    assert len(view_calls) == 1
    dict_name = input_dict_name("R", ())
    labels = sorted(
        database.shredded_environment().dictionaries[dict_name].support(),
        key=lambda label: label.render(),
    )
    for step, label in enumerate(labels):
        database.apply_update(Update(deep={dict_name: {label: Bag([f"z{step}"])}}))
        assert view.result() == database.relation("R")
    assert len(view_calls) == 1
    assert len(database_calls) == 1


def test_served_reads_stay_under_the_tracers_custom_patches(monkeypatch):
    """``_install_custom`` times wire encodes by replacing
    ``repro.serve.server.encode_bag_page`` and counts ``serve.http.bytes_out``
    by swapping ``self.wfile`` around ``handle_one_request``.  A body kept per
    version must still be *built* through that name, and every byte of every
    response — kept or not — must still leave through ``self.wfile``."""
    import socket

    from repro.client import APIClient, DatasetsClient
    from repro.serve import ReproServer, ServerConfig, protocol, server

    encodes = []
    written = []

    def counted_encode(bag, limit=None, offset=0):
        encodes.append((limit, offset))
        return protocol.encode_bag_page(bag, limit, offset)

    class CountingWriter:
        def __init__(self, raw):
            self.raw = raw

        def write(self, data):
            written.append(len(data))
            return self.raw.write(data)

        def __getattr__(self, name):
            return getattr(self.raw, name)

    handle_one_request = server._Handler.handle_one_request

    def counted_handle_one_request(self):
        self.wfile = CountingWriter(self.wfile)
        try:
            handle_one_request(self)
        finally:
            self.wfile = self.wfile.raw

    monkeypatch.setattr(server, "encode_bag_page", counted_encode)
    monkeypatch.setattr(server._Handler, "handle_one_request", counted_handle_one_request)

    with ReproServer(ServerConfig(port=0)) as instance:
        api = APIClient(instance.url)
        DatasetsClient(api).create("M", ["a"], [["x"], ["y"]])
        api.close()
        del written[:]
        request = b"GET /v1/default/datasets/M HTTP/1.1\r\nHost: t\r\n\r\n"
        received = b""
        with socket.create_connection(instance.address, timeout=5.0) as sock:
            sock.sendall(request * 3 + request.replace(b"/M ", b"/M?limit=1 "))
            sock.shutdown(socket.SHUT_WR)
            while chunk := sock.recv(65536):
                received += chunk
    assert received.count(b"HTTP/1.1 200 OK") == 4
    assert encodes == [(None, 0), (1, 0)]  # one miss for three full reads, one page
    assert sum(written) == len(received)


def test_every_store_delta_folds_through_the_patched_name_once(monkeypatch):
    """``storage.relation_apply_delta_s`` times
    ``SerialExecutionBackend.apply_delta``: every non-empty relation-store
    delta — a flat apply's nested store and mirror, a deep update's
    re-nested relation — must pass through it, and exactly once."""
    from repro.bag import Bag
    from repro.engine import scheduler
    from repro.ivm import Database, NestedIVMView, Update
    from repro.nrc import ast, builders as build
    from repro.nrc.types import BASE, bag_of, tuple_of
    from repro.shredding.shred_database import input_dict_name
    from repro.storage import RelationStore

    folds = []
    inside = []
    store_deltas = []
    fold = scheduler.SerialExecutionBackend.apply_delta
    store_apply = RelationStore.apply_delta

    def counted_fold(self, store, delta):
        folds.append(store.name)
        inside.append(store.name)
        try:
            return fold(self, store, delta)
        finally:
            inside.pop()

    def counted_store_apply(self, delta):
        if not delta.is_empty():
            store_deltas.append((self.name, list(inside)))
        return store_apply(self, delta)

    monkeypatch.setattr(scheduler.SerialExecutionBackend, "apply_delta", counted_fold)
    monkeypatch.setattr(RelationStore, "apply_delta", counted_store_apply)

    database = Database()
    database.register("M", bag_of(tuple_of(BASE, BASE)), Bag([("a", "x")]))
    schema = bag_of(bag_of(BASE))
    database.register("R", schema, Bag([Bag(["a"]), Bag(["b"])]))
    view = NestedIVMView(
        build.for_in("x", ast.Relation("R", schema), ast.SngVar("x")), database
    )
    database.apply_update(Update(relations={"M": Bag([("b", "y"), ("c", "z")])}))
    dict_name = input_dict_name("R", ())
    (label, *_) = database.shredded_environment().dictionaries[dict_name].support()
    database.apply_update(Update(deep={dict_name: {label: Bag(["deep"])}}))

    assert view.result() == database.relation("R")
    assert len(folds) == 3
    assert store_deltas == [(name, [name]) for name in folds]


def test_the_alias_names_are_the_serial_fold():
    from repro.engine import scheduler

    fold = scheduler.SerialExecutionBackend.apply_delta
    for alias in ("ThreadExecutionBackend", "ProcessExecutionBackend",
                  "SubinterpreterExecutionBackend"):
        assert getattr(scheduler, alias).apply_delta is fold
    assert scheduler.resolve_backend_spec(None) == ("serial", None)


def test_the_view_refresh_names_are_inert_residue():
    """``report.py`` records ``resolve_view_workers(None)``, ``inproc.py``
    records ``Database.refresh_mode()`` and ``layers.py`` patches
    ``ViewRefreshScheduler.run``; every refresh runs inline regardless."""
    from repro.engine.scheduler import ViewRefreshScheduler, resolve_view_workers
    from repro.ivm import Database

    assert resolve_view_workers(None) == 1
    order = []
    ViewRefreshScheduler().run([lambda index=index: order.append(index) for index in range(3)])
    assert order == [0, 1, 2]
    assert isinstance(Database().refresh_mode(), str)


def test_classic_and_recursive_refreshes_are_timed_apart(monkeypatch, spans):
    """The tracer keeps one wrapper per function object: were ``on_update``
    shared by the two flat view classes, every flat refresh would be timed
    as ``ivm.classic.refresh`` and ``ivm.recursive.refresh_s`` would read 0."""
    from repro.ivm import ClassicIVMView, RecursiveIVMView
    from repro.workloads import genre_selfjoin_query, movies_engine

    assert ClassicIVMView.on_update is not RecursiveIVMView.on_update
    calls = {}
    wrapped = {}

    def counting(span_name, original):
        def counted(*args, **kwargs):
            calls[span_name] = calls.get(span_name, 0) + 1
            return original(*args, **kwargs)

        return counted

    for span_name, sites in spans.items():
        if span_name not in ("ivm.classic.refresh", "ivm.recursive.refresh"):
            continue
        for module_name, path in sites:
            owner = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for name in parents:
                owner = getattr(owner, name)
            original = getattr(owner, attribute)
            wrapped.setdefault(id(original), counting(span_name, original))
            monkeypatch.setattr(owner, attribute, wrapped[id(original)])

    engine = movies_engine(count=20)
    for strategy in ("classic", "recursive"):
        engine.view(strategy, genre_selfjoin_query(), strategy=strategy)
    engine.insert("M", [("Fresh", "Drama", "Someone")])
    assert calls == {"ivm.classic.refresh": 1, "ivm.recursive.refresh": 1}
