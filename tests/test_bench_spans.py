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
