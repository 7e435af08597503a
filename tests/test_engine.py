"""Tests for the BroadcastEngine facade and its engine services.

Covers the registry plugin API, program-cache hit/miss semantics,
parallel-vs-serial sweep equivalence, and the run-manifest schema.
"""

from __future__ import annotations

import json

import pytest

from repro.core.errors import InsufficientChannelsError, ReproError
from repro.core.pages import instance_from_counts
from repro.core.pamad import schedule_pamad
from repro.engine import (
    MANIFEST_VERSION,
    BroadcastEngine,
    CellFailure,
    ExecutionPolicy,
    ProgramCache,
    RunManifest,
    ScheduleResult,
    SchedulerRegistry,
    available_schedulers,
    default_registry,
    get_scheduler,
    instance_fingerprint,
    program_key,
    register_scheduler,
)
from repro.engine.cache import CachedSchedule
from repro.sim.clients import measure_program


def _custom_scheduler(instance, num_channels):
    """A module-level plugin scheduler (picklable for process pools)."""
    return schedule_pamad(instance, num_channels)


def _crashing_scheduler(instance, num_channels):
    """Always raises — exercises structured CellFailure isolation."""
    raise ValueError("deliberate crash")


_FLAKY_CALLS = {"count": 0}


def _flaky_scheduler(instance, num_channels):
    """Fails every odd call — exercises retry-with-backoff (serial)."""
    _FLAKY_CALLS["count"] += 1
    if _FLAKY_CALLS["count"] % 2 == 1:
        raise RuntimeError("transient glitch")
    return schedule_pamad(instance, num_channels)


def _hardened_engine(**policy_kwargs):
    """An engine with builtin schedulers plus the crashy test plugins."""
    registry = SchedulerRegistry()
    registry.register("pamad", schedule_pamad)
    registry.register("boom", _crashing_scheduler)
    registry.register("flaky", _flaky_scheduler)
    policy_kwargs.setdefault("backoff", 0.0)
    return BroadcastEngine(
        registry=registry, execution=ExecutionPolicy(**policy_kwargs)
    )


# ----------------------------------------------------------------------
# Registry / plugin API
# ----------------------------------------------------------------------


class TestSchedulerRegistry:
    def test_builtins_registered_and_sorted(self):
        names = available_schedulers()
        assert names == tuple(sorted(names))
        assert {"pamad", "m-pb", "opt", "susc"} <= set(names)

    def test_mpb_alias_lives_in_alias_table(self):
        registry = default_registry()
        assert registry.aliases().get("mpb") == "m-pb"
        assert registry.get("mpb") is registry.get("m-pb")

    def test_register_plugin_with_alias(self):
        registry = SchedulerRegistry()
        registry.register("mine", _custom_scheduler, aliases=("my-sched",))
        assert registry.get("mine") is _custom_scheduler
        assert registry.get("MY-SCHED") is _custom_scheduler
        assert registry.resolve("my-sched") == "mine"

    def test_duplicate_name_rejected_without_replace(self):
        registry = SchedulerRegistry()
        registry.register("mine", _custom_scheduler)
        with pytest.raises(ReproError, match="already registered"):
            registry.register("mine", _custom_scheduler)
        registry.register("mine", _custom_scheduler, replace=True)

    def test_alias_to_unknown_target_rejected(self):
        registry = SchedulerRegistry()
        with pytest.raises(ReproError, match="unknown scheduler"):
            registry.alias("x", "ghost")

    def test_unregister_drops_aliases(self):
        registry = SchedulerRegistry()
        registry.register("mine", _custom_scheduler, aliases=("m1", "m2"))
        registry.unregister("m1")
        assert "mine" not in registry
        assert "m2" not in registry

    def test_unknown_name_error_lists_sorted_names(self):
        with pytest.raises(ReproError) as excinfo:
            get_scheduler("magic")
        listed = str(excinfo.value).split("choose from ")[1].split(", ")
        assert listed == sorted(listed)

    def test_register_scheduler_default_registry_roundtrip(self):
        register_scheduler("tmp-plugin", _custom_scheduler)
        try:
            assert get_scheduler("tmp-plugin") is _custom_scheduler
            assert "tmp-plugin" in available_schedulers()
        finally:
            default_registry().unregister("tmp-plugin")

    def test_every_registered_scheduler_satisfies_protocol(
        self, fig2_instance
    ):
        engine = BroadcastEngine()
        for name in available_schedulers():
            schedule = engine.schedule(fig2_instance, name, channels=4)
            assert isinstance(schedule, ScheduleResult), name
            assert schedule.program.cycle_length > 0, name
            assert schedule.average_delay >= 0, name
            assert schedule.meta["num_channels"] == 4, name


# ----------------------------------------------------------------------
# Program cache
# ----------------------------------------------------------------------


class TestProgramCache:
    def test_same_fingerprint_returns_identical_object(self, fig2_instance):
        engine = BroadcastEngine()
        first = engine.schedule(fig2_instance, "pamad", channels=3)
        second = engine.schedule(fig2_instance, "pamad", channels=3)
        assert first is second
        stats = engine.cache_stats()
        assert stats.hits == 1
        assert stats.misses == 1

    def test_equal_instances_share_cache_entries(self):
        engine = BroadcastEngine()
        a = instance_from_counts([3, 5, 3], [2, 4, 8])
        b = instance_from_counts([3, 5, 3], [2, 4, 8])
        assert instance_fingerprint(a) == instance_fingerprint(b)
        first = engine.schedule(a, "pamad", channels=3)
        second = engine.schedule(b, "pamad", channels=3)
        assert first is second

    def test_different_channels_miss(self, fig2_instance):
        engine = BroadcastEngine()
        engine.schedule(fig2_instance, "pamad", channels=2)
        engine.schedule(fig2_instance, "pamad", channels=3)
        stats = engine.cache_stats()
        assert stats.hits == 0
        assert stats.misses == 2

    def test_different_page_numbering_misses(self):
        a = instance_from_counts([3, 5, 3], [2, 4, 8])
        b = instance_from_counts([3, 5, 3], [2, 4, 8], first_page_id=100)
        assert instance_fingerprint(a) != instance_fingerprint(b)

    def test_different_scheduler_misses(self, fig2_instance):
        engine = BroadcastEngine()
        engine.schedule(fig2_instance, "pamad", channels=3)
        engine.schedule(fig2_instance, "m-pb", channels=3)
        assert engine.cache_stats().hits == 0

    def test_lru_eviction_respects_bound(self, fig2_instance):
        cache = ProgramCache(max_entries=2)
        schedule = schedule_pamad(fig2_instance, 3)
        for channels in (1, 2, 3):
            cache.put(
                program_key(fig2_instance, "pamad", channels),
                CachedSchedule(schedule, 0.0),
            )
        stats = cache.stats()
        assert stats.entries == 2
        assert stats.evictions == 1
        assert cache.get(program_key(fig2_instance, "pamad", 1)) is None

    def test_zero_capacity_disables_caching(self, fig2_instance):
        engine = BroadcastEngine(cache=ProgramCache(max_entries=0))
        first = engine.schedule(fig2_instance, "pamad", channels=3)
        second = engine.schedule(fig2_instance, "pamad", channels=3)
        assert first is not second
        assert engine.cache_stats().hits == 0


# ----------------------------------------------------------------------
# Sweeps: parallel == serial, repeated == cached
# ----------------------------------------------------------------------


SWEEP_KWARGS = dict(
    algorithms=("pamad", "m-pb"),
    channel_points=(1, 2, 3),
    num_requests=200,
    seed=7,
)


class TestEngineSweep:
    def test_parallel_matches_serial_bit_identically(self, fig2_instance):
        engine = BroadcastEngine()
        serial = engine.sweep(fig2_instance, workers=1, **SWEEP_KWARGS)
        parallel = engine.sweep(fig2_instance, workers=2, **SWEEP_KWARGS)
        assert parallel.points == serial.points

    def test_fresh_engines_produce_identical_tables(self, fig2_instance):
        from repro.analysis.sweep import sweep_table

        serial = BroadcastEngine().sweep(
            fig2_instance, workers=1, **SWEEP_KWARGS
        )
        parallel = BroadcastEngine(workers=2).sweep(
            fig2_instance, **SWEEP_KWARGS
        )
        table_s = sweep_table(serial.points, title="t")
        table_p = sweep_table(parallel.points, title="t")
        assert table_s.rows == table_p.rows

    def test_repeated_sweep_hits_cache_and_is_identical(self, fig2_instance):
        engine = BroadcastEngine()
        first = engine.sweep(fig2_instance, **SWEEP_KWARGS)
        second = engine.sweep(fig2_instance, **SWEEP_KWARGS)
        assert second.points == first.points
        assert first.manifest.cache_run.hits == 0
        assert second.manifest.cache_run.hits == len(second.points)
        assert second.manifest.cache_run.misses == 0

    def test_points_ordered_by_channels_then_algorithm(self, fig2_instance):
        result = BroadcastEngine().sweep(fig2_instance, **SWEEP_KWARGS)
        observed = [(p.channels, p.algorithm) for p in result.points]
        expected = [
            (channels, name)
            for channels in (1, 2, 3)
            for name in ("pamad", "m-pb")
        ]
        assert observed == expected

    def test_unpicklable_scheduler_falls_back_to_serial(self, fig2_instance):
        registry = SchedulerRegistry()
        registry.register("lam", lambda instance, n: schedule_pamad(instance, n))
        registry.register("pamad", schedule_pamad)
        engine = BroadcastEngine(registry=registry)
        result = engine.sweep(
            fig2_instance,
            algorithms=("lam", "pamad"),
            channel_points=(1, 2),
            num_requests=100,
            workers=2,
        )
        assert result.manifest.executor["mode"] == "serial"
        assert result.manifest.executor["fallback"] is True
        assert len(result.points) == 4

    @staticmethod
    def _measured(points):
        # Fresh engines re-schedule, so wall-clock elapsed differs; every
        # measured/derived field must still be bit-identical.
        from dataclasses import replace as _replace

        return [_replace(p, elapsed_seconds=0.0) for p in points]

    def test_shm_transport_matches_serial_bit_identically(
        self, fig2_instance
    ):
        serial = BroadcastEngine().sweep(
            fig2_instance, workers=1, **SWEEP_KWARGS
        )
        with BroadcastEngine() as engine:
            shm = engine.sweep(fig2_instance, workers=2, **SWEEP_KWARGS)
        assert self._measured(shm.points) == self._measured(serial.points)
        assert shm.manifest.executor["transport"] == "shm"

    def test_pooled_cache_hit_resweep_matches_serial(self, fig2_instance):
        # Fresh programs come back from the pool as packed grids and the
        # cache-hit re-sweep ships them out again; neither trip may move
        # a single point.
        serial = BroadcastEngine().sweep(
            fig2_instance, workers=1, **SWEEP_KWARGS
        )
        with BroadcastEngine(workers=2) as engine:
            first = engine.sweep(fig2_instance, **SWEEP_KWARGS)
            second = engine.sweep(fig2_instance, **SWEEP_KWARGS)
        assert first.manifest.executor["mode"] == "process"
        assert second.manifest.executor["mode"] == "process"
        assert second.manifest.cache_run.hits == len(second.points)
        assert second.manifest.cache_run.misses == 0
        assert second.points == first.points
        assert self._measured(first.points) == self._measured(serial.points)

    def test_cell_result_pickles_as_packed_grid(self, shm_posts):
        # Guard on the pool's wire size: a fresh n=1000 PAMAD cell must
        # come back as about its packed grid, and its cache hit must go
        # out as about the same.  Neither may carry the instance (posted
        # once per sweep) or the derived tables (list grid, appearance
        # index).
        import pickle
        from dataclasses import replace as _replace

        from repro.core.bounds import minimum_channels
        from repro.engine import executor
        from repro.engine.executor import CellSpec, execute_cell
        from repro.workload.generator import paper_instance

        instance = paper_instance("uniform")
        spec = CellSpec(
            algorithm="pamad",
            scheduler=schedule_pamad,
            channels=minimum_channels(instance),
            instance=instance,
            num_requests=100,
            seed=1,
        )
        posts = {}
        try:
            [fresh], shared = executor._ship_cells([spec], posts)
            wire = executor._guarded_execute_chunk(fresh)
            cell = executor._loads(wire, instance)
            program = cell.schedule.program
            budget = 1.25 * program.packed_grid().nbytes
            assert shared
            assert len(pickle.dumps(wire)) <= budget
            assert cell.schedule.instance is instance
            assert program == execute_cell(spec).schedule.program

            program.page_counts()  # warm the appearance index
            hit = _replace(
                spec,
                cached=CachedSchedule(cell.schedule, cell.elapsed_seconds),
            )
            [outgoing], _ = executor._ship_cells([hit], posts)
            assert len(pickle.dumps(outgoing)) <= budget
            replayed = executor._loads(
                executor._guarded_execute_chunk(outgoing), instance
            )
            assert replayed.schedule is None
            assert replayed.point == cell.point
            assert len(shm_posts) == 1  # one post serves both trips
        finally:
            for post in posts.values():
                post.close()

    def test_channel_sweep_helper_delegates_to_engine(self, fig2_instance):
        from repro.analysis.sweep import channel_sweep

        engine = BroadcastEngine()
        via_helper = channel_sweep(
            fig2_instance, engine=engine, **SWEEP_KWARGS
        )
        direct = engine.sweep(fig2_instance, **SWEEP_KWARGS)
        assert tuple(via_helper) == direct.points
        assert engine.last_manifest.operation == "sweep"
        assert engine.manifests[0].operation == "sweep"

    def test_scheduler_errors_become_structured_failures(self, fig2_instance):
        # SUSC below the Theorem-3.1 minimum raises; the hardened
        # executor must isolate that cell instead of aborting the sweep.
        engine = BroadcastEngine(
            execution=ExecutionPolicy(retries=0, backoff=0.0)
        )
        result = engine.sweep(
            fig2_instance,
            algorithms=("pamad", "susc"),
            channel_points=(1,),
            num_requests=50,
        )
        assert [p.algorithm for p in result.points] == ["pamad"]
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.algorithm == "susc"
        assert failure.error_type == InsufficientChannelsError.__name__
        executor = result.manifest.executor
        assert executor["cell_failures"] == 1
        assert result.manifest.results["failed_cells"] == 1


# ----------------------------------------------------------------------
# Executor hardening: isolation, retries, breaker, schema compat
# ----------------------------------------------------------------------


class TestExecutorHardening:
    def test_crashing_cell_does_not_poison_the_sweep(self, fig2_instance):
        # The PR's acceptance scenario: one deliberately crashing
        # scheduler cell; every other cell completes and the manifest
        # records failure and retry counts.
        engine = _hardened_engine(retries=1)
        result = engine.sweep(
            fig2_instance,
            algorithms=("pamad", "boom"),
            channel_points=(1, 2, 3),
            num_requests=100,
            workers=2,
        )
        assert [(p.algorithm, p.channels) for p in result.points] == [
            ("pamad", 1), ("pamad", 2), ("pamad", 3),
        ]
        assert len(result.failures) == 3
        assert all(f.algorithm == "boom" for f in result.failures)
        assert all(f.error_type == "ValueError" for f in result.failures)
        executor = result.manifest.executor
        assert executor["cell_failures"] == 3
        assert executor["retries"] >= 1
        assert result.manifest.results["failed_cells"] == 3
        assert [
            f["algorithm"] for f in result.manifest.results["failures"]
        ] == ["boom", "boom", "boom"]

    def test_retry_recovers_a_transient_failure(self, fig2_instance):
        _FLAKY_CALLS["count"] = 0
        engine = _hardened_engine(retries=1)
        result = engine.sweep(
            fig2_instance,
            algorithms=("flaky",),
            channel_points=(2,),
            num_requests=100,
            workers=1,
        )
        assert len(result.points) == 1
        assert not result.failures
        assert result.manifest.executor["retries"] == 1
        assert result.manifest.executor["cell_failures"] == 0

    def test_circuit_breaker_opens_after_consecutive_failures(
        self, fig2_instance
    ):
        engine = _hardened_engine(retries=0, breaker_threshold=2)
        result = engine.sweep(
            fig2_instance,
            algorithms=("boom", "pamad"),
            channel_points=(1, 2, 3, 4),
            num_requests=100,
            workers=1,
        )
        assert len(result.points) == 4  # pamad unaffected
        assert len(result.failures) == 4
        skipped = [f for f in result.failures if f.circuit_open]
        assert [f.channels for f in skipped] == [3, 4]
        assert all(f.attempts == 0 for f in skipped)
        assert all(f.error_type == "CircuitOpen" for f in skipped)
        assert result.manifest.executor["breaker_trips"] == 1

    def test_breaker_disabled_at_threshold_zero(self, fig2_instance):
        engine = _hardened_engine(retries=0, breaker_threshold=0)
        result = engine.sweep(
            fig2_instance,
            algorithms=("boom",),
            channel_points=(1, 2, 3),
            num_requests=100,
            workers=1,
        )
        assert all(not f.circuit_open for f in result.failures)
        assert result.manifest.executor["breaker_trips"] == 0

    def test_telemetry_counters_accumulate(self, fig2_instance):
        engine = _hardened_engine(retries=1, breaker_threshold=2)
        engine.sweep(
            fig2_instance,
            algorithms=("boom",),
            channel_points=(1, 2, 3),
            num_requests=100,
            workers=1,
        )
        counters = engine.telemetry.counters()
        assert counters["executor.cell_failures"] == 3
        assert counters["executor.retries"] == 2  # 1 retry x 2 cells, third skipped
        assert counters["executor.breaker_trips"] == 1

    def test_execution_policy_validates(self):
        with pytest.raises(ReproError, match="timeout"):
            ExecutionPolicy(timeout=0)
        with pytest.raises(ReproError, match="retries"):
            ExecutionPolicy(retries=-1)
        with pytest.raises(ReproError, match="backoff"):
            ExecutionPolicy(backoff=-0.1)


class TestManifestCompat:
    def test_round_trip_through_from_dict(self, fig2_instance):
        engine = BroadcastEngine()
        result = engine.sweep(fig2_instance, **SWEEP_KWARGS)
        parsed = RunManifest.from_dict(
            json.loads(result.manifest.to_json())
        )
        assert parsed.operation == "sweep"
        assert parsed.run_id == result.manifest.run_id
        assert parsed.executor == dict(result.manifest.executor)
        assert parsed.cache_total == result.manifest.cache_total

    def test_version_1_documents_still_parse(self, fig2_instance):
        engine = BroadcastEngine()
        result = engine.sweep(fig2_instance, **SWEEP_KWARGS)
        payload = json.loads(result.manifest.to_json())
        payload["manifest_version"] = 1
        for key in ("retries", "cell_failures", "breaker_trips", "timeouts"):
            payload["executor"].pop(key, None)
        payload.pop("service", None)
        parsed = RunManifest.from_dict(payload)
        assert parsed.executor["retries"] == 0
        assert parsed.executor["cell_failures"] == 0
        assert parsed.executor["mode"] == payload["executor"]["mode"]
        assert parsed.service == {}

    def test_version_2_documents_still_parse(self, fig2_instance):
        engine = BroadcastEngine()
        result = engine.sweep(fig2_instance, **SWEEP_KWARGS)
        payload = json.loads(result.manifest.to_json())
        payload["manifest_version"] = 2
        payload.pop("service", None)  # the block v3 introduced
        payload["executor"].pop("short_circuited")  # a key v4 introduced
        payload["executor"].pop("transport")  # the key v8 introduced
        parsed = RunManifest.from_dict(payload)
        assert parsed.service == {}
        assert parsed.executor == dict(result.manifest.executor)
        assert parsed.cache_total == result.manifest.cache_total

    def test_version_3_documents_still_parse(self, fig2_instance):
        from repro.workload.mutations import generate_mutation_trace

        trace = generate_mutation_trace(
            fig2_instance, seed=3, horizon=24, mutations=4, listeners=6
        )
        payload = json.loads(
            BroadcastEngine().live(fig2_instance, trace).manifest.to_json()
        )
        payload["manifest_version"] = 3
        payload["executor"].pop("short_circuited")
        for key in (
            "batched_listeners", "events_coalesced", "replans_avoided",
        ):
            payload["service"]["counters"].pop(key, None)
        parsed = RunManifest.from_dict(payload)
        assert parsed.executor["short_circuited"] == 0
        # Version 10 retired the other v4 executor keys again.
        assert "chunk_size" not in parsed.executor
        assert "measure_backend" not in parsed.executor
        assert parsed.service["counters"]["batched_listeners"] == 0
        assert parsed.service["counters"]["events_coalesced"] == 0
        assert parsed.service["counters"]["replans_avoided"] == 0

    def test_live_manifest_serialises_service_block(self, fig2_instance):
        from repro.workload.mutations import generate_mutation_trace

        trace = generate_mutation_trace(
            fig2_instance, seed=3, horizon=24, mutations=4, listeners=6
        )
        result = BroadcastEngine().live(fig2_instance, trace)
        payload = json.loads(result.manifest.to_json())
        assert payload["manifest_version"] == MANIFEST_VERSION
        assert payload["operation"] == "live"
        assert payload["service"]["trace_fingerprint"] == trace.fingerprint()
        assert "admission" in payload["service"]
        assert "slo" in payload["service"]
        counters = payload["service"]["counters"]
        assert counters["batched_listeners"] == counters["listeners"] > 0
        assert counters["events_coalesced"] == 0
        assert counters["replans_avoided"] == 0

    def test_live_manifest_round_trip_is_exact(self, fig2_instance):
        from repro.workload.mutations import generate_mutation_trace

        trace = generate_mutation_trace(
            fig2_instance, seed=3, horizon=24, mutations=4, listeners=6
        )
        manifest = BroadcastEngine().live(fig2_instance, trace).manifest
        parsed = RunManifest.from_json(manifest.to_json())
        assert parsed.service == dict(manifest.service)
        assert parsed.to_dict() == manifest.to_dict()
        assert parsed.created_at == 0.0  # live manifests pin determinism

    def test_unknown_versions_are_rejected(self):
        with pytest.raises(ReproError, match="unsupported manifest_version"):
            RunManifest.from_dict({"manifest_version": 99})
        with pytest.raises(ReproError, match="unsupported manifest_version"):
            RunManifest.from_dict({})


# ----------------------------------------------------------------------
# Evaluate / plan
# ----------------------------------------------------------------------


class TestEvaluateAndPlan:
    def test_evaluate_matches_direct_measurement(self, fig2_instance):
        engine = BroadcastEngine()
        evaluation = engine.evaluate(
            fig2_instance, "pamad", channels=3, num_requests=300, seed=5
        )
        expected = measure_program(
            schedule_pamad(fig2_instance, 3).program,
            fig2_instance,
            num_requests=300,
            seed=5,
        )
        assert evaluation.measurement.average_delay == expected.average_delay
        assert evaluation.manifest.operation == "evaluate"

    def test_evaluate_reuses_schedule_cache(self, fig2_instance):
        engine = BroadcastEngine()
        engine.schedule(fig2_instance, "pamad", channels=3)
        evaluation = engine.evaluate(
            fig2_instance, "pamad", channels=3, num_requests=100
        )
        assert evaluation.manifest.results["cache_hit"] is True

    def test_plan_emits_manifest(self, fig2_instance):
        engine = BroadcastEngine()
        plan = engine.plan(fig2_instance, available=3)
        assert plan.required == 4
        manifest = engine.last_manifest
        assert manifest.operation == "plan"
        assert manifest.to_dict()["results"]["sufficient"] is False


# ----------------------------------------------------------------------
# Telemetry and manifests
# ----------------------------------------------------------------------


class TestRunManifest:
    def test_manifest_schema(self, fig2_instance):
        engine = BroadcastEngine()
        result = engine.sweep(fig2_instance, **SWEEP_KWARGS)
        payload = json.loads(result.manifest.to_json())
        assert payload["manifest_version"] == MANIFEST_VERSION
        assert payload["operation"] == "sweep"
        assert payload["run_id"] == 1
        assert payload["instance"]["fingerprint"] == instance_fingerprint(
            fig2_instance
        )
        assert payload["instance"]["pages"] == 11
        assert payload["schedulers"] == ["pamad", "m-pb"]
        assert payload["channels"] == [1, 2, 3]
        assert set(payload["executor"]) == {
            "mode", "workers", "fallback",
            "retries", "cell_failures", "breaker_trips", "timeouts",
            "short_circuited", "transport",
        }
        for scope in ("run", "total"):
            assert set(payload["cache"][scope]) == {
                "hits", "misses", "evictions", "entries", "hit_ratio",
            }
        assert "sweep.execute" in payload["timings"]
        assert payload["counters"]["sweep.cells"] == 6
        assert payload["results"]["cells"] == 6

    def test_run_ids_are_monotonic(self, fig2_instance):
        engine = BroadcastEngine()
        engine.plan(fig2_instance)
        engine.schedule(fig2_instance, "pamad", channels=3)
        assert [m.run_id for m in engine.manifests] == [1, 2]

    def test_manifest_dir_writes_files(self, fig2_instance, tmp_path):
        engine = BroadcastEngine(manifest_dir=tmp_path / "runs")
        engine.schedule(fig2_instance, "pamad", channels=3)
        files = sorted((tmp_path / "runs").glob("run-*.json"))
        assert len(files) == 1
        payload = json.loads(files[0].read_text())
        assert payload["operation"] == "schedule"
        assert payload["results"]["meta"]["scheduler"] == "pamad"

    def test_telemetry_counts_schedule_stages(self, fig2_instance):
        engine = BroadcastEngine()
        engine.schedule(fig2_instance, "pamad", channels=3)
        engine.schedule(fig2_instance, "pamad", channels=3)
        counters = engine.telemetry.counters()
        assert counters["cache.misses"] == 1
        assert counters["cache.hits"] == 1
        timers = engine.telemetry.timers()
        assert timers["schedule"]["calls"] == 1


# ----------------------------------------------------------------------
# Root package surface
# ----------------------------------------------------------------------


class TestRemovedShims:
    """Unknown root attributes raise the default error; the engine
    names are exported from the root."""

    def test_unknown_attribute_error_unchanged(self):
        import repro

        with pytest.raises(AttributeError, match="no attribute"):
            repro.definitely_not_a_name

    def test_new_names_exported_from_root(self):
        import repro

        for name in (
            "BroadcastEngine", "ScheduleResult", "register_scheduler",
            "get_scheduler", "available_schedulers", "SweepPoint",
            "SweepResult", "RunManifest", "default_engine",
        ):
            assert hasattr(repro, name), name
