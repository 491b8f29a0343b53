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

import json
import threading
import time

import pytest

from repro.bag import Bag
from repro.client.api import APIClient, APIError
from repro.engine import Engine
from repro.serve import (
    BackpressureError,
    Command,
    IngestWorker,
    ProtocolError,
    ReproServer,
    ServerConfig,
)
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
        assert {e["strategy"] for e in plan["estimates"]} >= {"naive", "nested"}
        for estimate in plan["estimates"]:
            assert isinstance(estimate["eligible"], bool)


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

    def test_stopped_worker_rejects_submissions(self):
        worker = IngestWorker("t", capacity=4, apply_batch=lambda updates: {})
        assert worker.drain_and_stop()
        with pytest.raises(RuntimeError):
            worker.submit(Command("apply", run=lambda: None))


class TestEngineOptions:
    @pytest.mark.parametrize(
        "options, message",
        [
            ({"shards": 4}, "unexpected keyword argument 'shards'"),
            ({"parallel_views": 0}, "unexpected keyword argument 'parallel_views'"),
            ({"fsync": "sometimes"}, "fsync policy"),
            ({"backend": "serial"}, "unexpected keyword argument 'backend'"),
        ],
    )
    def test_bad_engine_options_fail_at_construction(self, options, message):
        """Tenants build engines lazily; a bad option must stop the server
        before it listens, not answer every tenant creation with a 500."""
        with pytest.raises(ValueError, match=message):
            ReproServer(ServerConfig(port=0, engine_options=options))

    @pytest.mark.parametrize(
        "variable, value, message",
        [
            ("REPRO_FSYNC", "bogus", "fsync policy"),
            ("REPRO_WAL_SEGMENT_BYTES", "abc", "REPRO_WAL_SEGMENT_BYTES must be an integer"),
            ("REPRO_WAL_SEGMENT_BYTES", "0", "segment size must be positive"),
        ],
    )
    def test_bad_durability_environment_fails_at_construction(
        self, monkeypatch, tmp_path, variable, value, message
    ):
        """A durable server resolves the WAL settings every tenant engine
        will read from the environment before it listens."""
        monkeypatch.setenv(variable, value)
        with pytest.raises(ValueError, match=message):
            ReproServer(ServerConfig(port=0, data_dir=str(tmp_path)))

    def test_good_engine_options_reach_the_tenant_engine(self):
        options = {"expected_update_size": 4}
        with ReproServer(ServerConfig(port=0, engine_options=options)) as server:
            api = APIClient(server.url)
            api.post("v1/t/datasets", {"name": "M", "fields": ["a"], "rows": [["x"]]})
            spec = {"from": "M", "var": "m", "select": [["field", "m", "a"]]}
            api.post("v1/t/views", {"name": "v", "query": spec})
            api.close()
            plan = server.sessions.get("t").engine.explain("v")
            assert plan.expected_update_size == 4
