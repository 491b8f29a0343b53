"""The serving layer: protocol, endpoints, backpressure, lifecycle.

Covers the wire protocol's encode/decode inverses, the JSON
comprehension-spec compiler, JSON-serializability of every introspection
surface (``explain``, ``storage_report``, ``indexes`` — the contract the
server's read endpoints rely on), the HTTP endpoints end to end against a
live :class:`~repro.serve.ReproServer`, deterministic 429 backpressure, and
the graceful-shutdown path (queue drained, ``Engine.close`` joined the
scheduler, sockets gone).
"""

from __future__ import annotations

import errno
import http.client
import json
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bag import Bag
from repro.client.api import APIClient, APIError
from repro.durability import WriteAheadLog
from repro.engine import Engine
from repro.errors import EvaluationError, ReproError, WorkloadError
from repro.ivm import Update
from repro.serve import (
    BackpressureError,
    Command,
    IngestWorker,
    ProtocolError,
    ReproServer,
    ServerConfig,
)
from repro.serve.sessions import TenantSession
from repro.serve.protocol import (
    decode_update,
    decode_value,
    encode_bag,
    encode_value,
    fields_spec_of,
    query_from_spec,
    record_from_spec,
)
from repro.workloads import MOVIE_SCHEMA, PAPER_MOVIES, movies_engine, related_query

DRAMAS_SPEC = {
    "from": "M",
    "var": "m",
    "where": ["eq", ["field", "m", "gen"], ["const", "Drama"]],
    "select": [["field", "m", "name"]],
}

RELATED_SPEC = {
    "from": "M",
    "var": "m",
    "select": [
        ["field", "m", "name"],
        [
            "nest",
            {
                "from": "M",
                "var": "m2",
                "where": [
                    "and",
                    ["ne", ["field", "m", "name"], ["field", "m2", "name"]],
                    [
                        "or",
                        ["eq", ["field", "m", "gen"], ["field", "m2", "gen"]],
                        ["eq", ["field", "m", "dir"], ["field", "m2", "dir"]],
                    ],
                ],
                "select": [["field", "m2", "name"]],
            },
        ],
    ],
}


@pytest.fixture
def server():
    with ReproServer(ServerConfig(port=0)) as instance:
        yield instance


@pytest.fixture
def api(server):
    return APIClient(server.url, max_retries=2, sleep=lambda _: None)


# --------------------------------------------------------------------------- #
# Protocol: values, updates, schemas
# --------------------------------------------------------------------------- #
class TestValueCodec:
    def test_flat_and_nested_round_trip(self):
        values = [
            ("Drive", "Drama", "Refn"),
            ("m", Bag([("a",), ("a",), ("b",)])),
            (1, 2.5, True, None, "s"),
            ("outer", Bag([("inner", Bag(["x"]))])),
        ]
        for value in values:
            wire = encode_value(value)
            json_safe = json.loads(json.dumps(wire))
            assert decode_value(json_safe) == value

    def test_encode_bag_carries_sizes(self):
        payload = encode_bag(Bag(["a", "a", "b"]))
        assert payload["distinct"] == 2
        assert payload["cardinality"] == 3
        assert sorted(payload["pairs"]) == [["a", 2], ["b", 1]]

    def test_labels_refuse_decoding(self):
        with pytest.raises(ProtocolError):
            decode_value({"label": "K_1"})

    def test_unknown_wire_object_rejected(self):
        with pytest.raises(ProtocolError):
            decode_value({"mystery": 1})

    def test_decode_update_rows_and_pairs(self):
        update = decode_update(
            {"M": {"rows": [["a", "b", "c"]]}, "F": {"pairs": [[["x", "y"], -2]]}}
        )
        assert update.relations["M"] == Bag([("a", "b", "c")])
        assert update.relations["F"].multiplicity(("x", "y")) == -2

    def test_decode_update_rejects_malformed(self):
        for bad in ({}, {"M": []}, {"M": {"rows": 3}}, {"M": {"pairs": [["a"]]}}):
            with pytest.raises(ProtocolError):
                decode_update(bad)

    def test_record_spec_round_trip(self):
        record = record_from_spec(
            "M", ["name", "gen", {"name": "tags", "bag": ["tag"]}]
        )
        spec = fields_spec_of(record)
        assert spec[0] == "name"
        assert spec[2]["name"] == "tags"
        assert record_from_spec("M", spec).fields[2][0] == "tags"


def _record_engine():
    """An engine whose M dataset is Record-registered (the server's path)."""
    engine = Engine()
    engine.dataset("M", record_from_spec("M", ["name", "gen", "dir"]), PAPER_MOVIES)
    return engine


class TestQuerySpec:
    def test_flat_spec_matches_dsl(self):
        engine = _record_engine()
        datasets = {"M": engine.dataset_handle("M")}
        query = query_from_spec(DRAMAS_SPEC, datasets)
        view = engine.view("dramas", query)
        assert view.result() == Bag(["Drive"])
        engine.insert("M", [("Jarhead", "Drama", "Mendes")])
        assert view.result() == Bag(["Drive", "Jarhead"])

    def test_nested_spec_reproduces_related(self):
        engine = _record_engine()
        datasets = {"M": engine.dataset_handle("M")}
        spec_view = engine.view(
            "related_spec", query_from_spec(RELATED_SPEC, datasets)
        )
        ast_view = engine.view("related_ast", related_query())
        assert spec_view.result() == ast_view.result()

    def test_bad_specs_rejected(self):
        engine = _record_engine()
        datasets = {"M": engine.dataset_handle("M")}
        bad_specs = [
            [],
            {"var": "m"},
            {"from": "NOPE", "var": "m"},
            {"from": "M", "var": ""},
            {"from": "M", "var": "m", "where": ["eq", ["const", 1], ["const", 2]]},
            {"from": "M", "var": "m", "where": ["??", 1, 2]},
            {"from": "M", "var": "m", "select": [["field", "ghost", "name"]]},
            {"from": "M", "var": "m", "surprise": 1},
            {"from": "M", "var": "m", "select": [["nest", {"from": "M", "var": "m"}]]},
        ]
        for spec in bad_specs:
            with pytest.raises(ProtocolError):
                query_from_spec(spec, datasets)


# Operand constants that are not base values: a view spec holding one is a
# bad request, never an internal error.
NON_BASE_CONSTANTS = (
    ["eq", ["field", "m", "name"], ["const", [1, 2]]],
    ["eq", ["field", "m", "name"], ["const", {"a": 1}]],
    ["lt", ["field", "m", "name"], ["const", None]],
)

#: JSON values, and the wire grammar's shapes built from them, so generated
#: specs reach past each decoder's first check.
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=8,
)


def _mostly(shaped):
    """``shaped`` three draws in four, any JSON value otherwise."""
    return st.one_of(shaped, shaped, shaped, _json_values)


_vars = _mostly(st.sampled_from(["m", "m2"]))
_fields = _mostly(st.sampled_from(["name", "gen", "dir", "nope"]))
_operands = _mostly(
    st.builds(lambda var, name: ["field", var, name], _vars, _fields)
    | st.builds(lambda value: ["const", value], _mostly(st.sampled_from(["a", 1, 2.5, True])))
)
_where_specs = st.recursive(
    st.builds(
        lambda kind, left, right: [kind, left, right],
        st.sampled_from(["eq", "ne", "lt", "le", "gt", "ge", "is"]),
        _operands,
        _operands,
    ),
    lambda children: st.builds(
        lambda kind, parts: [kind, *parts],
        st.sampled_from(["and", "or", "not"]),
        st.lists(children, max_size=3),
    ),
    max_leaves=4,
)
_query_specs = st.deferred(
    lambda: _mostly(
        st.fixed_dictionaries(
            {"from": _mostly(st.sampled_from(["M", "N"]))},
            optional={
                "var": _vars,
                "where": _mostly(_where_specs),
                "select": _mostly(st.lists(_select_specs, max_size=3)),
            },
        )
    )
)
_select_specs = _mostly(
    st.builds(lambda var, name: ["field", var, name], _vars, _fields)
    | st.builds(lambda var: ["row", var], _vars)
    | st.builds(lambda query: ["nest", query], _query_specs)
)
_updates = _mostly(
    st.dictionaries(
        st.sampled_from(["M", "N"]) | st.text(max_size=3),
        _mostly(
            st.fixed_dictionaries(
                {},
                optional={
                    "rows": _mostly(st.lists(_json_values, max_size=3)),
                    "pairs": _mostly(st.lists(st.lists(_json_values, max_size=3), max_size=3)),
                },
            )
        ),
        max_size=2,
    )
)
_record_specs = st.deferred(
    lambda: _mostly(
        st.lists(
            _mostly(_fields | st.fixed_dictionaries({"name": _fields, "bag": _record_specs})),
            max_size=3,
        )
    )
)


def _wire_outcome(thunk):
    """Run one decoder: it may succeed or refuse with a 4xx error, nothing else."""
    try:
        thunk()
    except (ProtocolError, ReproError):
        pass


class TestGeneratedWireSpecs:
    """Generated JSON into the decoders the server runs on request bodies:
    the only errors allowed are the two ``_dispatch`` answers with a 4xx."""

    @settings(max_examples=300, deadline=None)
    @given(_query_specs)
    @example({"from": "M", "var": "m", "where": NON_BASE_CONSTANTS[0]})
    @example({"from": "M", "var": "m", "where": NON_BASE_CONSTANTS[1]})
    @example({"from": "M", "var": "m", "where": NON_BASE_CONSTANTS[2]})
    def test_query_specs(self, spec):
        datasets = {"M": _record_engine().dataset_handle("M")}
        _wire_outcome(lambda: query_from_spec(spec, datasets))

    @settings(max_examples=300, deadline=None)
    @given(_updates)
    def test_updates(self, payload):
        _wire_outcome(lambda: decode_update(payload))

    @settings(max_examples=300, deadline=None)
    @given(_record_specs)
    def test_record_specs(self, fields):
        _wire_outcome(lambda: record_from_spec("M", fields))

    @pytest.mark.parametrize("where", NON_BASE_CONSTANTS)
    def test_non_base_constant_is_a_bad_request(self, server, where):
        connection = http.client.HTTPConnection(*server.address, timeout=10)
        try:
            fields = {"name": "M", "fields": ["name", "gen", "dir"]}
            assert _post(connection, "/v1/t/datasets", fields)[0] == 201
            query = {"from": "M", "var": "m", "where": where}
            status, _, payload = _post(connection, "/v1/t/views", {"name": "v", "query": query})
        finally:
            connection.close()
        assert status == 400
        assert payload["error"]["code"] == "bad_request"


# --------------------------------------------------------------------------- #
# Satellite: introspection surfaces are plain JSON
# --------------------------------------------------------------------------- #
class TestJsonSerializableIntrospection:
    def test_explain_storage_indexes_round_trip(self):
        engine = movies_engine(PAPER_MOVIES)
        engine.view("related", related_query())
        engine.insert("M", [("Jarhead", "Drama", "Mendes")])

        plan = engine["related"].plan.to_dict()
        storage = engine.storage_report()
        indexes = engine["related"].indexes()
        for payload in (plan, storage, indexes):
            assert json.loads(json.dumps(payload)) == payload

    def test_plan_dict_fields(self):
        engine = movies_engine(PAPER_MOVIES)
        engine.view("related", related_query(), strategy="nested")
        plan = engine["related"].plan.to_dict()
        assert plan["view"] == "related"
        assert plan["strategy"] == "nested"
        assert isinstance(plan["query"], str)
        assert plan["reason"] == "explicitly requested"
        assert set(plan["artifacts"]) == {"shredded flat"}
        assert "estimates" not in plan and "expected_update_size" not in plan


# --------------------------------------------------------------------------- #
# Engine lifecycle (satellite: Engine.close / context manager)
# --------------------------------------------------------------------------- #
class TestEngineLifecycle:
    def test_close_is_idempotent_and_blocks_writes(self):
        engine = movies_engine(PAPER_MOVIES)
        engine.view("related", related_query())
        assert not engine.closed
        engine.close()
        engine.close()
        assert engine.closed
        with pytest.raises(Exception):
            engine.insert("M", [("Jarhead", "Drama", "Mendes")])

    def test_context_manager_closes(self):
        with Engine() as engine:
            engine.dataset("M", MOVIE_SCHEMA, PAPER_MOVIES)
            assert not engine.closed
        assert engine.closed

    def test_reads_survive_close(self):
        engine = movies_engine(PAPER_MOVIES)
        view = engine.view("related", related_query())
        result = view.result()
        engine.close()
        assert view.result() == result

    def test_state_version_monotone(self):
        engine = movies_engine(PAPER_MOVIES)
        v0 = engine.state_version
        engine.view("related", related_query())
        v1 = engine.state_version
        engine.insert("M", [("Jarhead", "Drama", "Mendes")])
        v2 = engine.state_version
        assert v0 < v1 < v2
        snapshot = engine.snapshot()
        assert snapshot.version == v2
        assert snapshot.views["related"] == engine["related"].result()


# --------------------------------------------------------------------------- #
# Ingest worker: coalescing + deterministic backpressure
# --------------------------------------------------------------------------- #
class TestIngestWorker:
    def test_coalesces_consecutive_applies(self):
        seen = []
        release = threading.Event()

        def apply_batch(updates):
            seen.append(len(updates))
            return {"applied": len(updates)}

        worker = IngestWorker("t", capacity=16, coalesce=8, apply_batch=apply_batch)
        try:
            worker.submit(Command("block", run=release.wait))
            commands = [
                worker.submit(Command("apply", run=lambda: None, payload=i))
                for i in range(5)
            ]
            release.set()
            results = [command.result(5.0) for command in commands]
            assert seen == [5]
            assert all(result["batched_with"] == 4 for result in results)
            assert worker.stats.coalesced_updates == 4
        finally:
            release.set()
            worker.drain_and_stop()

    def test_backpressure_rejects_at_capacity(self):
        release = threading.Event()
        started = threading.Event()
        worker = IngestWorker(
            "t", capacity=2, coalesce=2, apply_batch=lambda updates: {}
        )
        try:
            worker.submit(
                Command("block", run=lambda: (started.set(), release.wait()))
            )
            assert started.wait(5.0)  # the block left the queue; depth is 0
            worker.submit(Command("apply", run=lambda: None))
            worker.submit(Command("apply", run=lambda: None))
            with pytest.raises(BackpressureError) as info:
                worker.submit(Command("apply", run=lambda: None))
            assert info.value.retry_after > 0
            assert worker.stats.rejected == 1
            # Control commands are still admitted past the bound.
            worker.submit(Command("control", run=lambda: "ok"))
        finally:
            release.set()
            worker.drain_and_stop()

    def test_worker_errors_propagate_to_waiters(self):
        def apply_batch(updates):
            raise ValueError("boom")

        worker = IngestWorker("t", capacity=4, coalesce=4, apply_batch=apply_batch)
        try:
            command = worker.submit(Command("apply", run=lambda: None))
            with pytest.raises(ValueError, match="boom"):
                command.result(5.0)
            assert worker.stats.errors == 1
        finally:
            worker.drain_and_stop()


# --------------------------------------------------------------------------- #
# A rejected write among coalesced ones
# --------------------------------------------------------------------------- #
OLD_FILMS = {
    "from": "Y",
    "var": "y",
    "where": ["lt", ["field", "y", "year"], ["const", 2000]],
    "select": [["field", "y", "name"]],
}


def _films_session(**options):
    session = TenantSession("t", engine_options=options)
    session.create_dataset("Y", ["name", "year"], [["a", 1990]])
    session.create_view("old", OLD_FILMS, strategy="classic")
    return session


def _coalesced(session, rows):
    """Submit one write per row behind a stalled worker, so they coalesce."""
    release = threading.Event()
    session.worker.submit(Command("block", run=release.wait))
    commands = [
        session.submit_apply(Update(relations={"Y": Bag([row])})) for row in rows
    ]
    release.set()
    return commands


class TestCoalescedRejection:
    def test_rejected_write_fails_only_its_own_command(self):
        session = _films_session()
        try:
            good, bad, later = _coalesced(
                session, [("b", 1995), ("c", "1998"), ("d", 2010)]
            )
            assert good.result(5.0)["applied"] == 1
            with pytest.raises(EvaluationError):
                bad.result(5.0)
            assert later.result(5.0)["applied"] == 1
            engine = session.engine
            assert engine.snapshot().datasets["Y"] == Bag(
                [("a", 1990), ("b", 1995), ("d", 2010)]
            )
            assert engine["old"].result() == Bag(["a", "b"])
            assert session.worker.stats.errors == 1
        finally:
            session.close()

    def test_batch_applied_but_not_synced_is_applied_once(self, tmp_path, monkeypatch):
        """A batch whose WAL sync failed is already in the engine, so the
        engine turns read-only before the one-at-a-time retry, which then
        applies nothing a second time."""
        session = _films_session(data_dir=str(tmp_path))
        engine = session.engine

        def failing_sync(wal):
            raise OSError("disk gone")

        monkeypatch.setattr(WriteAheadLog, "sync", failing_sync)
        try:
            commands = _coalesced(session, [("b", 1995), ("d", 2010)])
            for command in commands:
                with pytest.raises(WorkloadError, match="log failed after an apply: disk gone"):
                    command.result(5.0)
            assert engine.snapshot().datasets["Y"] == Bag(
                [("a", 1990), ("b", 1995), ("d", 2010)]
            )
            assert "write-ahead log failed" in engine.read_only
        finally:
            session.close()


# --------------------------------------------------------------------------- #
# A primary whose engine turned read-only
# --------------------------------------------------------------------------- #
def _post(connection, path, body):
    connection.request(
        "POST", path, json.dumps(body), {"Content-Type": "application/json"}
    )
    response = connection.getresponse()
    return response.status, response.getheader("Retry-After"), json.loads(response.read())


class TestReadOnlyPrimary:
    def test_failed_log_write_and_every_later_write_answer_not_writable(
        self, tmp_path, monkeypatch
    ):
        """The write whose WAL append hit a full disk and each write after it
        answer 503 ``not_writable`` without ``Retry-After``, as on a fenced
        tenant, with the engine's reason in the message."""
        with ReproServer(ServerConfig(port=0, data_dir=str(tmp_path))) as server:
            connection = http.client.HTTPConnection(*server.address, timeout=10)
            try:
                status, _, _ = _post(
                    connection, "/v1/t/datasets", {"name": "Y", "fields": ["name", "year"]}
                )
                assert status == 201

                def full_disk(wal, payload):
                    raise OSError(errno.ENOSPC, "No space left on device")

                monkeypatch.setattr(WriteAheadLog, "append", full_disk)
                writes = [
                    ("/v1/t/apply", {"updates": [{"Y": {"rows": [["a", 1990]]}}]}),
                    ("/v1/t/apply", {"updates": [{"Y": {"rows": [["b", 2010]]}}]}),
                    ("/v1/t/datasets", {"name": "Z", "fields": ["name"]}),
                    ("/v1/t/views", {"name": "v", "query": OLD_FILMS}),
                ]
                for path, body in writes:
                    status, retry_after, payload = _post(connection, path, body)
                    assert (status, retry_after) == (503, None)
                    assert payload["error"]["code"] == "not_writable"
                    assert "No space left on device" in payload["error"]["message"]
            finally:
                connection.close()


# --------------------------------------------------------------------------- #
# HTTP endpoints
# --------------------------------------------------------------------------- #
class TestEndpoints:
    def _seed(self, api, tenant="t"):
        api.post(
            f"v1/{tenant}/datasets",
            {
                "name": "M",
                "fields": ["name", "gen", "dir"],
                "rows": [["Drive", "Drama", "Refn"], ["Skyfall", "Action", "Mendes"]],
            },
        )
        api.post(f"v1/{tenant}/views", {"name": "dramas", "query": DRAMAS_SPEC})

    def test_health_and_stats(self, api):
        health = api.get("health")
        assert health["status"] == "ok"
        stats = api.get("stats")
        assert stats["server"]["requests_served"] >= 1

    def test_dataset_view_apply_cycle(self, api):
        self._seed(api)
        applied = api.post(
            "v1/t/apply",
            {"updates": [{"M": {"rows": [["Jarhead", "Drama", "Mendes"]]}}]},
        )
        assert applied["applied"] == 1
        shown = api.get("v1/t/views/dramas")
        assert sorted(tuple(p) for p in shown["pairs"]) == [
            ("Drive", 1),
            ("Jarhead", 1),
        ]
        assert shown["version"] == applied["results"][0]["version"]

    def test_nested_view_over_the_wire(self, api):
        self._seed(api)
        api.post("v1/t/views", {"name": "related", "query": RELATED_SPEC})
        api.post(
            "v1/t/apply",
            {"updates": [{"M": {"rows": [["Jarhead", "Drama", "Mendes"]]}}]},
        )
        shown = api.get("v1/t/views/related")
        by_name = {pair[0][0]: pair[0][1] for pair in shown["pairs"]}
        assert sorted(el for el, _ in by_name["Jarhead"]["bag"]) == [
            "Drive",
            "Skyfall",
        ]

    def test_explain_indexes_storage_snapshot(self, api):
        self._seed(api)
        explain = api.get("v1/t/views/dramas/explain")
        assert explain["plan"]["view"] == "dramas"
        indexes = api.get("v1/t/views/dramas/indexes")
        assert isinstance(indexes["indexes"], list)
        storage = api.get("v1/t/storage")
        assert "storage" in storage
        snapshot = api.get("v1/t/snapshot")
        assert set(snapshot["views"]) == {"dramas"}
        assert set(snapshot["datasets"]) == {"M"}

    def test_tenants_are_isolated(self, api):
        self._seed(api, tenant="a")
        with pytest.raises(APIError) as info:
            api.get("v1/b/views/dramas")
        assert info.value.status == 404
        assert "a" in api.get("health")["tenants"]

    def test_error_mapping(self, api):
        with pytest.raises(APIError) as info:
            api.get("v1/t/views/ghost")
        assert (info.value.status, info.value.code) == (404, "not_found")
        with pytest.raises(APIError) as info:
            api.post("v1/t/apply", {"updates": [{"GHOST": {"rows": [["x"]]}}]})
        assert info.value.status == 404
        with pytest.raises(APIError) as info:
            api.post("v1/t/datasets", {"name": "M"})
        assert info.value.status == 400
        with pytest.raises(APIError) as info:
            api.get("nope/nope")
        assert info.value.status == 404

    def test_async_apply_acks_then_applies(self, api):
        self._seed(api)
        accepted = api.post(
            "v1/t/apply",
            {
                "updates": [{"M": {"rows": [["Jarhead", "Drama", "Mendes"]]}}],
                "mode": "async",
            },
        )
        assert accepted["accepted"] == 1
        deadline = [api.get("v1/t/views/dramas") for _ in range(50)]
        assert any(
            ("Jarhead", 1) in [tuple(p) for p in shown["pairs"]] for shown in deadline
        )

    def test_http_429_with_retry_after_under_storm(self, server):
        # Deterministic storm: block the single writer, fill the (tiny)
        # queue with async applies, then watch admission control refuse.
        config = ServerConfig(port=0, queue_depth=2)
        with ReproServer(config) as small:
            api = APIClient(small.url, max_retries=0)
            api.post(
                "v1/t/datasets", {"name": "M", "fields": ["name", "gen", "dir"]}
            )
            session = small.sessions.get("t")
            release = threading.Event()
            started = threading.Event()
            session.worker.submit(
                Command("block", run=lambda: (started.set(), release.wait()))
            )
            assert started.wait(5.0)
            try:
                update = {"M": {"rows": [["X", "Y", "Z"]]}}
                for _ in range(2):
                    api.post(
                        "v1/t/apply", {"updates": [update], "mode": "async"}
                    )
                with pytest.raises(APIError) as info:
                    api.post(
                        "v1/t/apply", {"updates": [update], "mode": "async"}
                    )
                assert info.value.status == 429
                assert info.value.code == "backpressure"
                stats = api.get("stats")["tenants"]["t"]
                assert stats["ingest"]["rejected_backpressure"] >= 1
            finally:
                release.set()

    def test_client_retries_through_backpressure(self, server):
        config = ServerConfig(port=0, queue_depth=1)
        with ReproServer(config) as small:
            naps = []

            def brief_nap(seconds):
                # Record the hint but nap briefly, so the retry loop does
                # not exhaust its budget before the blocker is released.
                naps.append(seconds)
                time.sleep(0.05)

            api = APIClient(small.url, max_retries=20, sleep=brief_nap)
            api.post(
                "v1/t/datasets", {"name": "M", "fields": ["name", "gen", "dir"]}
            )
            session = small.sessions.get("t")
            release = threading.Event()
            started = threading.Event()
            session.worker.submit(
                Command("block", run=lambda: (started.set(), release.wait()))
            )
            assert started.wait(5.0)
            update = {"M": {"rows": [["X", "Y", "Z"]]}}
            api.post("v1/t/apply", {"updates": [update], "mode": "async"})

            results = {}

            def eventually():
                results["applied"] = api.post("v1/t/apply", {"updates": [update]})

            writer = threading.Thread(target=eventually)
            writer.start()
            while not api.retries_performed:
                pass
            release.set()
            writer.join(10.0)
            assert results["applied"]["applied"] == 1
            assert naps and all(nap > 0 for nap in naps)


# --------------------------------------------------------------------------- #
# Graceful shutdown
# --------------------------------------------------------------------------- #
class TestShutdown:
    def test_drain_applies_queued_work_and_closes_engines(self):
        server = ReproServer(ServerConfig(port=0)).start()
        api = APIClient(server.url, max_retries=1)
        api.post(
            "v1/t/datasets",
            {"name": "M", "fields": ["name", "gen", "dir"], "rows": [["A", "B", "C"]]},
        )
        for _ in range(5):
            api.post(
                "v1/t/apply",
                {"updates": [{"M": {"rows": [["X", "Y", "Z"]]}}], "mode": "async"},
            )
        session = server.sessions.get("t")
        engine = session.engine
        server.close(drain=True)

        assert session.worker.depth() == 0
        assert not session.worker.is_alive()
        assert engine.closed
        assert engine.snapshot().datasets["M"].multiplicity(("X", "Y", "Z")) == 5
        with pytest.raises(APIError):
            APIClient(server.url, max_retries=0).get("health")

    def test_close_is_idempotent(self):
        server = ReproServer(ServerConfig(port=0)).start()
        server.close()
        server.close()

    def test_close_of_a_server_never_started_returns(self):
        # Closing a server that never served returns, and serving it after
        # that close returns at once instead of serving a closed socket.
        server = ReproServer(ServerConfig(port=0))
        for step in (server.close, server.serve_forever):
            thread = threading.Thread(target=step, daemon=True)
            thread.start()
            thread.join(5)
            assert not thread.is_alive()

    def test_stopped_worker_rejects_submissions(self):
        worker = IngestWorker("t", capacity=4, apply_batch=lambda updates: {})
        assert worker.drain_and_stop()
        with pytest.raises(RuntimeError):
            worker.submit(Command("apply", run=lambda: None))


class TestEngineOptions:
    def test_bad_fsync_policy_fails_at_construction(self, tmp_path):
        """Tenants build engines lazily; a bad policy must stop the server
        before it listens, not answer every tenant creation with a 500."""
        with pytest.raises(ValueError, match="fsync policy"):
            ReproServer(ServerConfig(port=0, fsync="sometimes", data_dir=str(tmp_path)))

    def test_good_engine_options_reach_the_tenant_engine(self, tmp_path):
        config = ServerConfig(port=0, fsync="off", data_dir=str(tmp_path))
        with ReproServer(config) as server:
            api = APIClient(server.url)
            api.post("v1/t/datasets", {"name": "M", "fields": ["a"], "rows": [["x"]]})
            api.close()
            durability = server.sessions.get("t").engine.durability_report()
            assert durability["policy"] == "off"
