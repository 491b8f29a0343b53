"""Pluggable execution backends: serial ≡ threads ≡ processes (≡ subinterpreters).

The core property is differential, and stricter than view-level equality:
maintenance with the shard-apply path pinned to any execution backend must
leave the engine in a **bit-identical state** to the serial backend — view
contents, storage reports (bag contents, index state, version stamps,
``deltas_applied``, snapshot freezes) — across every strategy, including
negative deltas and deep (label-addressed) updates.  Backend specifics are
covered directly: spec parsing and resolution, the cost model's
recommendation rules, the sendability gate (NaN poisons a store back to
threads, stickily), shard export/adopt round-trips, and the planner's
small-relation single-shard default.
"""

import json

import pytest

from repro.bag.bag import Bag
from repro.bag.codec import UnsendableValueError, encode_pairs
from repro.engine import Engine
from repro.engine.scheduler import (
    EXECUTION_BACKENDS,
    PROCESS_DELTA_THRESHOLD,
    THREAD_DELTA_THRESHOLD,
    ProcessExecutionBackend,
    availability_fallback,
    backend_availability,
    create_execution_backend,
    forced_backend,
    parse_backend_spec,
    recommend_backend,
    resolve_backend_spec,
)
from repro.engine.workunits import fold_pairs, fold_shard_unit, index_triples
from repro.ivm import Update
from repro.nrc import ast
from repro.nrc import builders as build
from repro.nrc.types import BASE, bag_of
from repro.shredding.shred_database import input_dict_name
from repro.storage import RelationStore, forced_shards
from repro.storage.shards import SMALL_RELATION_SHARD_THRESHOLD
from repro.workloads import (
    MOVIE_SCHEMA,
    bag_of_bags_engine,
    generate_movies,
    genre_selfjoin_query,
    movie_update_stream,
    movies_engine,
    nested_update_stream,
)

STRATEGIES = ("naive", "classic", "recursive", "nested")

_AVAILABILITY = backend_availability()
NON_SERIAL_SPECS = ["threads:2"]
if _AVAILABILITY["processes"]["available"]:
    NON_SERIAL_SPECS.append("processes:2")
if _AVAILABILITY["subinterpreters"]["available"]:
    NON_SERIAL_SPECS.append("subinterpreters:2")


# --------------------------------------------------------------------------- #
# Differential: every backend leaves the engine bit-identical to serial
# --------------------------------------------------------------------------- #
def _final_state(spec, runner):
    """Run a workload with the shard-apply path pinned to ``spec``; return
    the view results and the full storage report (minus the execution
    section, the one part that legitimately differs between backends)."""
    with forced_shards(4), forced_backend(spec):
        engine, results = runner()
        try:
            report = engine.storage_report()
            report.pop("execution", None)
        finally:
            engine.close()
        return results, json.dumps(report, sort_keys=True, default=repr)


def _strategy_runner(strategy):
    """Genre self-join under a mixed insert/delete stream (negative deltas)."""

    def run():
        movies = generate_movies(120, seed=11)
        engine = movies_engine(movies, expected_update_size=6)
        view = engine.view("v", genre_selfjoin_query(), strategy=strategy)
        engine.apply_stream(
            movie_update_stream(4, 6, existing=movies, deletion_ratio=0.4, seed=17)
        )
        return engine, (view.result(),)

    return run


def _deep_update_runner():
    """Nested strategy with deep (label-addressed) updates plus relation deltas."""

    def run():
        engine = bag_of_bags_engine(15, 3, seed=47)
        relation = ast.Relation("R", bag_of(bag_of(BASE)))
        view = engine.view(
            "v", build.for_in("x", relation, ast.SngVar("x")), strategy="nested"
        )
        dict_name = input_dict_name("R", ())
        dictionary = engine.database.shredded_environment().dictionaries[dict_name]
        labels = sorted(dictionary.support(), key=lambda label: label.render())[:2]
        engine.apply(
            Update(
                deep={
                    dict_name: {
                        label: Bag([f"deep-{i}"]) for i, label in enumerate(labels)
                    }
                }
            )
        )
        engine.apply_stream(nested_update_stream("R", 2, 1, 3, seed=53))
        return engine, (view.result(),)

    return run


class TestBackendEquivalence:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_every_backend_matches_serial(self, strategy):
        runner = _strategy_runner(strategy)
        serial_results, serial_report = _final_state("serial", runner)
        for spec in NON_SERIAL_SPECS:
            results, report = _final_state(spec, runner)
            assert results == serial_results, f"{spec} diverged on view results"
            assert report == serial_report, f"{spec} diverged on storage report"

    def test_deep_updates_match_serial(self):
        runner = _deep_update_runner()
        serial_results, serial_report = _final_state("serial", runner)
        for spec in NON_SERIAL_SPECS:
            results, report = _final_state(spec, runner)
            assert results == serial_results, f"{spec} diverged on view results"
            assert report == serial_report, f"{spec} diverged on storage report"

    @pytest.mark.skipif(
        not _AVAILABILITY["processes"]["available"],
        reason=str(_AVAILABILITY["processes"]["reason"]),
    )
    def test_offload_sized_deltas_really_use_the_process_backend(self):
        batch = max(150, PROCESS_DELTA_THRESHOLD + 8)
        with forced_shards(4), forced_backend("processes:2"):
            movies = generate_movies(600, seed=97)
            engine = movies_engine(movies, expected_update_size=batch)
            query = build.for_in("x", ast.Relation("M", MOVIE_SCHEMA), ast.SngVar("x"))
            view = engine.view("catalog", query, strategy="classic")
            try:
                engine.apply_stream(
                    movie_update_stream(
                        3, batch, existing=movies, deletion_ratio=0.25, seed=101
                    )
                )
                execution = engine.database.execution_report()
                assert execution["applies"].get("processes", 0) > 0
                assert view.result().cardinality() > 0
            finally:
                engine.close()


# --------------------------------------------------------------------------- #
# Spec parsing, resolution and the cost model
# --------------------------------------------------------------------------- #
class TestBackendSpecs:
    def test_parse_backend_spec(self):
        assert parse_backend_spec("serial") == ("serial", None)
        assert parse_backend_spec("processes:4") == ("processes", 4)
        assert parse_backend_spec(" threads : 2 ") == ("threads", 2)

    @pytest.mark.parametrize("bad", ["bogus", "processes:x", "processes:0"])
    def test_parse_backend_spec_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_backend_spec(bad)

    def test_resolution_order_override_env_auto(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve_backend_spec(None) == ("auto", None)
        monkeypatch.setenv("REPRO_BACKEND", "threads:3")
        assert resolve_backend_spec(None) == ("threads", 3)
        assert resolve_backend_spec("processes:2") == ("processes", 2)

    def test_forced_backend_pins_and_validates(self):
        with forced_backend("threads:2"):
            assert resolve_backend_spec(None) == ("threads", 2)
        with pytest.raises(ValueError):
            with forced_backend("bogus"):
                pass  # pragma: no cover - must raise before entering

    def test_engine_rejects_bad_spec_eagerly(self):
        with pytest.raises(ValueError):
            Engine(backend="not-a-backend")

    def test_availability_always_has_serial_and_threads(self):
        availability = backend_availability()
        assert set(availability) == set(EXECUTION_BACKENDS)
        assert availability["serial"]["available"]
        assert availability["threads"]["available"]
        for name in EXECUTION_BACKENDS:
            effective, _ = availability_fallback(name)
            assert availability[effective]["available"]

    def test_recommendation_rules(self):
        # Nothing to parallelize: serial.
        assert recommend_backend(10_000, 1, 4) == "serial"
        assert recommend_backend(10_000, 8, 1) == "serial"
        # A handful of rows folds inline: the pool hand-off costs more.
        assert recommend_backend(THREAD_DELTA_THRESHOLD - 1, 8, 4) == "serial"
        assert recommend_backend(THREAD_DELTA_THRESHOLD, 8, 4) == "threads"
        # Mid-sized deltas on multi-shard stores: threads (no IPC worth paying).
        assert recommend_backend(PROCESS_DELTA_THRESHOLD - 1, 8, 4) == "threads"
        # Offload-sized deltas: processes where fork exists, threads otherwise.
        recommended = recommend_backend(PROCESS_DELTA_THRESHOLD, 8, 4)
        if _AVAILABILITY["processes"]["available"]:
            assert recommended == "processes"
        else:
            assert recommended == "threads"

    def test_explain_reports_backend(self):
        with forced_shards(4):
            engine = movies_engine(generate_movies(60, seed=7), expected_update_size=2)
            try:
                view = engine.view("v", genre_selfjoin_query(), strategy="classic")
                plan = engine.explain("v")
                assert plan.backend == engine.database.execution_plan(2)
                assert "backend" in plan.to_dict()
                assert "backend" in plan.render()
                assert view.result() is not None
            finally:
                engine.close()


# --------------------------------------------------------------------------- #
# Sendability gate: what poisons a process backend back to threads
# --------------------------------------------------------------------------- #
@pytest.mark.skipif(
    not _AVAILABILITY["processes"]["available"],
    reason=str(_AVAILABILITY["processes"]["reason"]),
)
class TestProcessFallbacks:
    def _stores(self, rows):
        sharded = RelationStore("R", Bag(rows), shards=4)
        serial = RelationStore("R", Bag(rows), shards=4)
        return sharded, serial

    def test_nan_delta_poisons_store_to_threads_stickily(self):
        rows = [("a", 1), ("b", 2), ("c", 3)]
        sharded, serial = self._stores(rows)
        backend = ProcessExecutionBackend(2)
        try:
            nan_delta = Bag([("a", float("nan"))])
            assert backend.apply_delta(sharded, nan_delta) == "threads"
            serial.apply_delta(nan_delta)
            assert sharded.bag == serial.bag
            # Sticky: even a clean follow-up delta stays off the wire.
            clean = Bag([("d", 4)])
            assert backend.apply_delta(sharded, clean) == "threads"
            serial.apply_delta(clean)
            assert sharded.bag == serial.bag
            assert backend.describe()["store_fallbacks"]
        finally:
            backend.shutdown()

    def test_clean_delta_goes_over_the_wire_and_matches_serial(self):
        rows = [(f"k{i}", i) for i in range(40)]
        sharded, serial = self._stores(rows)
        sharded.ensure_index(((0,),))
        serial.ensure_index(((0,),))
        backend = ProcessExecutionBackend(2)
        try:
            delta = Bag(
                [(f"k{i}", i + 100) for i in range(20)]
                + [((f"k{i}", i), -1) for i in range(5)]
            )
            assert backend.apply_delta(sharded, delta) == "processes"
            serial.apply_delta(delta)
            assert sharded.bag == serial.bag
            assert sharded.describe() == serial.describe()
        finally:
            backend.shutdown()

    def test_create_execution_backend_rejects_unknown(self):
        with pytest.raises(ValueError):
            create_execution_backend("bogus", 2)


# --------------------------------------------------------------------------- #
# Work units and shard export/adopt: the parent-side fold protocol
# --------------------------------------------------------------------------- #
class TestShardExportAdopt:
    def test_export_fold_adopt_matches_serial_apply(self):
        rows = [(f"k{i}", i % 7) for i in range(64)]
        offloaded = RelationStore("R", Bag(rows), shards=4)
        serial = RelationStore("R", Bag(rows), shards=4)
        offloaded.ensure_index(((1,),))
        serial.ensure_index(((1,),))
        delta = Bag([(f"k{i}", (i + 1) % 7) for i in range(24)] + [((f"k{1}", 1 % 7), -1)])

        groups = offloaded.partition_delta(delta)
        version = offloaded.begin_delta()
        for position, pairs in groups.items():
            export = offloaded.export_shard(position)
            data = export["data"]
            summaries = fold_shard_unit(
                data, pairs, offloaded.shard_unit_paths(position)
            )
            offloaded.adopt_shard(position, data, summaries, version=version)
        offloaded.finish_delta()
        serial.apply_delta(delta)

        assert offloaded.bag == serial.bag
        assert offloaded.describe() == serial.describe()
        probe = ("k3", (3 + 1) % 7)
        assert offloaded.bag.multiplicity(probe) == serial.bag.multiplicity(probe)

    def test_fold_pairs_cancels_at_zero(self):
        data = {"a": 2, "b": 1}
        fold_pairs(data, [("a", -2), ("b", 1), ("c", 3), ("c", -3)])
        assert data == {"b": 2}

    def test_index_triples_abandons_unhashable_slices(self):
        healthy = index_triples([(("a", 1), 1)], ((0,),))
        assert healthy == [(("a",), ("a", 1), 1)]
        poisoned = index_triples([(([1, 2], 1), 1)], ((0,),))
        assert poisoned is None

    def test_codec_rejects_nan_pairs(self):
        with pytest.raises(UnsendableValueError):
            encode_pairs([(float("nan"), 1)])


# --------------------------------------------------------------------------- #
# Planner default: small relations get one shard
# --------------------------------------------------------------------------- #
class TestSmallRelationDefault:
    def _shard_counts(self, engine):
        return {
            entry["relation"]: entry["shards"]
            for entry in engine.storage_report()["nested"]["stores"]
        }

    def test_small_relations_default_to_one_shard(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        small_rows = generate_movies(SMALL_RELATION_SHARD_THRESHOLD - 1, seed=7)
        large_rows = generate_movies(SMALL_RELATION_SHARD_THRESHOLD + 40, seed=7)
        engine = Engine()
        try:
            engine.dataset("S", MOVIE_SCHEMA, small_rows)
            engine.dataset("L", MOVIE_SCHEMA, large_rows)
            counts = self._shard_counts(engine)
            assert counts["S"] == 1
            assert counts["L"] > 1
        finally:
            engine.close()

    def test_pinned_shards_override_the_small_relation_default(self):
        with forced_shards(4):
            engine = Engine()
            try:
                engine.dataset("S", MOVIE_SCHEMA, generate_movies(50, seed=7))
                assert self._shard_counts(engine)["S"] == 4
            finally:
                engine.close()

    def test_small_default_preserves_maintenance(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        movies = generate_movies(80, seed=11)
        engine = movies_engine(movies, expected_update_size=4)
        try:
            view = engine.view("v", genre_selfjoin_query(), strategy="classic")
            engine.apply_stream(
                movie_update_stream(3, 4, existing=movies, deletion_ratio=0.3, seed=13)
            )
            with forced_shards(1):
                reference = movies_engine(movies, expected_update_size=4)
                try:
                    ref_view = reference.view(
                        "v", genre_selfjoin_query(), strategy="classic"
                    )
                    reference.apply_stream(
                        movie_update_stream(
                            3, 4, existing=movies, deletion_ratio=0.3, seed=13
                        )
                    )
                    assert view.result() == ref_view.result()
                finally:
                    reference.close()
        finally:
            engine.close()


# --------------------------------------------------------------------------- #
# Stats surfacing: the serve layer reports backend and per-backend applies
# --------------------------------------------------------------------------- #
class TestExecutionReporting:
    def test_execution_report_counts_applies_by_effective_backend(self):
        with forced_shards(4), forced_backend("threads:2"):
            movies = generate_movies(60, seed=7)
            engine = movies_engine(movies, expected_update_size=4)
            try:
                engine.view("v", genre_selfjoin_query(), strategy="classic")
                engine.apply_stream(
                    movie_update_stream(2, 4, existing=movies, seed=13)
                )
                execution = engine.database.execution_report()
                assert execution["requested"] == "threads"
                assert execution["applies"].get("threads", 0) > 0
                assert set(execution["availability"]) == set(EXECUTION_BACKENDS)
            finally:
                engine.close()

    def test_small_deltas_fold_inline_and_platform_probes_run_once(self, monkeypatch):
        from repro.engine import scheduler

        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        # Pretend to be a multi-core host so ``auto`` has a choice to make.
        monkeypatch.setattr(scheduler, "_auto_workers", lambda: 4)
        movies = generate_movies(600, seed=7)
        with forced_shards(4):
            engine = movies_engine(movies)
        try:
            engine.view("v", genre_selfjoin_query(), strategy="classic")
            probes = scheduler._interpreters_module.cache_info().misses
            engine.apply_stream(movie_update_stream(6, 4, existing=movies, seed=13))
            # Nested store and flat mirror, each once per update.
            assert engine.database.execution_report()["applies"] == {"serial": 12}
            # REPRO_BACKEND stays dynamic between applies.
            with forced_backend("threads:2"):
                engine.apply_stream(movie_update_stream(1, 4, existing=movies, seed=14))
            assert engine.database.execution_report()["applies"]["threads"] == 2
            # The failing ``import concurrent.interpreters`` is not re-run per delta.
            assert scheduler._interpreters_module.cache_info().misses <= max(probes, 1)
        finally:
            engine.close()

    def test_storage_report_includes_execution_section(self):
        engine = Engine()
        try:
            assert "execution" in engine.storage_report()
        finally:
            engine.close()
