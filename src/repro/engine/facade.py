"""BroadcastEngine — the single entry point for plan/schedule/evaluate/sweep.

Every workflow in the repo (CLI subcommands, the experiment registry,
the sweep harness, benchmarks) goes through this facade.  It composes
the three engine services:

* the **scheduler registry** (:mod:`repro.engine.registry`) — public
  plugin API, alias-aware name resolution;
* the **program cache** (:mod:`repro.engine.cache`) — memoised
  scheduling keyed by instance fingerprints, with hit/miss accounting;
* the **observability layer** (:mod:`repro.engine.telemetry`) —
  counters, stage timers, and a structured JSON run manifest emitted by
  every call.

Sweeps and federations additionally fan their cells or shards across
the engine's one process pool (:mod:`repro.engine.executor`) with
deterministic result ordering and automatic serial fallback.  The pool
starts on the first fan-out, stays warm between calls and ends with
:meth:`BroadcastEngine.close`, a ``with`` block, or the engine itself.

Typical use::

    from repro.engine import BroadcastEngine

    with BroadcastEngine(workers=4) as engine:
        schedule = engine.schedule(instance, "pamad", channels=13)
        result = engine.sweep(instance, algorithms=("pamad", "m-pb", "opt"))
    print(result.manifest.to_json())
"""

from __future__ import annotations

import threading
import time
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from repro.core.bounds import ChannelPlan, minimum_channels, plan_channels
from repro.core.errors import ReproError
from repro.core.pages import ProblemInstance
from repro.engine.cache import (
    CachedSchedule,
    CacheStats,
    ProgramCache,
    program_key,
)
from repro.engine.executor import (
    EXECUTOR_MODES,
    CellFailure,
    CellSpec,
    ExecutionPolicy,
    ExecutionReport,
    SweepPoint,
    TaskPool,
    default_channel_points,
    run_cells,
)
from repro.engine.registry import (
    ScheduleResult,
    SchedulerRegistry,
    default_registry,
)
from repro.engine.telemetry import (
    RunManifest,
    Telemetry,
    describe_instance,
)
from repro.sim.clients import MeasurementResult, measure_program

__all__ = [
    "BroadcastEngine",
    "EngineEvaluation",
    "FederationResult",
    "LiveServiceResult",
    "ResilienceResult",
    "SweepResult",
    "default_engine",
]


def _write_manifest_path(
    manifest: RunManifest, manifest_path: str | Path | None
) -> None:
    """Write ``manifest`` as JSON when a ``manifest_path=`` was given."""
    if manifest_path is None:
        return
    path = Path(manifest_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(manifest.to_json() + "\n", encoding="utf-8")


@dataclass(frozen=True)
class EngineEvaluation:
    """Outcome of :meth:`BroadcastEngine.evaluate` — schedule + replay."""

    algorithm: str
    channels: int
    schedule: ScheduleResult
    measurement: MeasurementResult
    manifest: RunManifest


@dataclass(frozen=True)
class ResilienceResult:
    """Outcome of :meth:`BroadcastEngine.resilience`.

    Attributes:
        plan: The fault plan that was replayed.
        outcomes: One :class:`~repro.resilience.policies.ReplayOutcome`
            per policy, in the order the policies were given.
        manifest: The run manifest (operation ``"resilience"``).
    """

    plan: object
    outcomes: tuple
    manifest: RunManifest

    def __iter__(self):
        return iter(self.outcomes)

    def __len__(self) -> int:
        return len(self.outcomes)


@dataclass(frozen=True)
class LiveServiceResult:
    """Outcome of :meth:`BroadcastEngine.live`.

    Attributes:
        report: The runtime's :class:`~repro.live.service.LiveReport`
            (program, catalog, counters, decisions, event log).
        baseline: The Longest-Wait-First pull replay of the same trace
            (a :class:`~repro.live.baseline.PullOutcome`), or ``None``
            when the baseline was skipped.
        manifest: The run manifest (operation ``"live"``, schema v6 with
            the ``service`` block filled in).  Emitted deterministically:
            ``created_at`` is pinned to ``0.0`` and wall-clock timings
            are dropped, so identical runs produce byte-identical
            manifests.
    """

    report: object
    baseline: object | None
    manifest: RunManifest


@dataclass(frozen=True)
class FederationResult:
    """Outcome of :meth:`BroadcastEngine.federate`.

    Attributes:
        report: The federation's
            :class:`~repro.federation.service.FederationReport` (ring
            placement, global admission trail, drift rebalances,
            per-shard summaries).
        manifest: The run manifest (operation ``"federate"``, schema v7
            with the ``federation`` block filled in).  Emitted
            deterministically — ``created_at`` pinned, timings dropped —
            so fixed-seed federated replays are byte-identical.
    """

    report: object
    manifest: RunManifest


@dataclass(frozen=True)
class SweepResult:
    """Outcome of :meth:`BroadcastEngine.sweep`.

    Iterating or indexing a ``SweepResult`` yields its points, so it is
    a drop-in for the old bare ``list[SweepPoint]`` in most call sites.
    Cells whose scheduler crashed (after retries / breaker handling in
    the executor) are excluded from ``points`` and reported as
    structured :class:`~repro.engine.executor.CellFailure` entries in
    ``failures``.
    """

    points: tuple[SweepPoint, ...]
    manifest: RunManifest
    failures: tuple[CellFailure, ...] = ()

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, index):
        return self.points[index]


@dataclass
class BroadcastEngine:
    """The cached, parallel, observable scheduling facade.

    The engine owns at most one :class:`~repro.engine.executor.TaskPool`.
    It starts on the first sweep or federation that fans out, is shared
    by every later one at the same width, and is replaced when a call
    asks for another width.  :meth:`close` (or leaving a ``with`` block)
    shuts it down; so does dropping the engine, and interpreter exit
    for engines still alive then, such as :func:`default_engine`.

    Attributes:
        registry: Scheduler name → callable registry (defaults to the
            process-wide registry, so plugins registered via
            :func:`repro.engine.register_scheduler` are visible).
        cache: Program cache shared by every call on this engine.
        telemetry: Counter/timer accumulator snapshotted into manifests.
        workers: Default pool width for sweeps and federations
            (1 = serial).
        executor: ``"process"`` fans out on the engine's pool;
            ``"serial"`` never starts one.
        execution: Hardening knobs applied to every fan-out — per-task
            timeout (on a pool), bounded retries with exponential
            backoff, and the per-algorithm circuit breaker (see
            :class:`~repro.engine.executor.ExecutionPolicy`).
        manifest_dir: When set, every manifest is additionally written to
            ``<manifest_dir>/run-<id>.json``.
        keep_manifests: Upper bound on the in-memory manifest history.
    """

    registry: SchedulerRegistry = field(default_factory=default_registry)
    cache: ProgramCache = field(default_factory=ProgramCache)
    telemetry: Telemetry = field(default_factory=Telemetry)
    workers: int = 1
    executor: str = "process"
    execution: ExecutionPolicy = field(default_factory=ExecutionPolicy)
    manifest_dir: str | Path | None = None
    keep_manifests: int = 64

    def __post_init__(self) -> None:
        if self.executor not in EXECUTOR_MODES:
            raise ReproError(
                f"unknown executor mode {self.executor!r}; choose from "
                f"{', '.join(EXECUTOR_MODES)}"
            )
        self._manifests: list[RunManifest] = []
        self._run_counter = 0
        self._lock = threading.RLock()
        self._pool: TaskPool | None = None
        self._pool_finalizer: weakref.finalize | None = None

    # ------------------------------------------------------------------
    # The pool
    # ------------------------------------------------------------------

    def _task_pool(self, workers: int) -> TaskPool | None:
        """The pool a fan-out ``workers`` wide runs on, or ``None`` for
        a serial run."""
        if workers <= 1 or self.executor != "process":
            return None
        with self._lock:
            if self._pool is not None and self._pool.workers != workers:
                self.close()
            if self._pool is None:
                self._pool = TaskPool(workers)
                # Holds the pool, not the engine, so a dropped engine
                # can be collected and its workers shut down.
                self._pool_finalizer = weakref.finalize(
                    self, self._pool.close
                )
            return self._pool

    def close(self) -> None:
        """Shut the pool's workers down; a later fan-out starts anew."""
        with self._lock:
            if self._pool_finalizer is not None:
                self._pool_finalizer()
            self._pool = self._pool_finalizer = None

    def __enter__(self) -> "BroadcastEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Manifest plumbing
    # ------------------------------------------------------------------

    @property
    def manifests(self) -> tuple[RunManifest, ...]:
        """Manifests of every call on this engine, oldest first."""
        return tuple(self._manifests)

    @property
    def last_manifest(self) -> RunManifest | None:
        return self._manifests[-1] if self._manifests else None

    def cache_stats(self) -> CacheStats:
        """Lifetime cache accounting for this engine."""
        return self.cache.stats()

    def _next_run_id(self) -> int:
        with self._lock:
            self._run_counter += 1
            return self._run_counter

    def _emit_manifest(
        self,
        *,
        operation: str,
        instance: ProblemInstance,
        parameters: Mapping[str, object],
        schedulers: Sequence[str],
        channels: Sequence[int],
        cache_before: CacheStats,
        telemetry_before: Mapping[str, dict],
        results: Mapping[str, object],
        service: Mapping[str, object] | None = None,
        control: Mapping[str, object] | None = None,
        federation: Mapping[str, object] | None = None,
        deterministic: bool = False,
        executor: Mapping[str, object] | None = None,
    ) -> RunManifest:
        if executor is None:  # the operation never pools
            executor = {
                **ExecutionReport(mode="serial").as_dict(),
                "workers": 1,
            }
        cache_total = self.cache.stats()
        run_share = Telemetry.delta(self.telemetry.snapshot(), telemetry_before)
        manifest = RunManifest(
            run_id=self._next_run_id(),
            operation=operation,
            # Deterministic operations pin the timestamp and drop the
            # wall-clock timers so identical inputs serialise to
            # byte-identical manifests (the live replay contract).
            created_at=0.0 if deterministic else time.time(),
            instance=describe_instance(instance),
            parameters=dict(parameters),
            schedulers=tuple(schedulers),
            channels=tuple(channels),
            executor=dict(executor),
            cache_run=cache_total.delta(cache_before),
            cache_total=cache_total,
            timings={} if deterministic else run_share["timers"],
            counters=run_share["counters"],
            results=dict(results),
            service=dict(service or {}),
            control=dict(control or {}),
            federation=dict(federation or {}),
        )
        with self._lock:
            self._manifests.append(manifest)
            if len(self._manifests) > self.keep_manifests:
                del self._manifests[: -self.keep_manifests]
        if self.manifest_dir is not None:
            directory = Path(self.manifest_dir)
            directory.mkdir(parents=True, exist_ok=True)
            path = directory / f"run-{manifest.run_id:04d}.json"
            path.write_text(manifest.to_json() + "\n")
        return manifest

    # ------------------------------------------------------------------
    # Cached scheduling core
    # ------------------------------------------------------------------

    def _resolve_channels(
        self, instance: ProblemInstance, channels: int | None
    ) -> int:
        if channels is None:
            return minimum_channels(instance)
        if channels < 1:
            raise ReproError(f"channels must be >= 1, got {channels}")
        return channels

    def _schedule_cached(
        self, instance: ProblemInstance, algorithm: str, channels: int
    ) -> tuple[ScheduleResult, float, bool]:
        """Schedule through the cache.

        Returns:
            ``(schedule, elapsed_seconds, hit)`` where ``elapsed_seconds``
            is the original scheduling wall time (replayed on hits).
        """
        name = self.registry.resolve(algorithm)
        scheduler = self.registry.get(name)
        key = program_key(instance, name, channels, scheduler)
        entry = self.cache.get(key)
        if entry is not None:
            self.telemetry.incr("cache.hits")
            return entry.schedule, entry.elapsed_seconds, True
        self.telemetry.incr("cache.misses")
        started = time.perf_counter()
        with self.telemetry.timer("schedule"):
            schedule = scheduler(instance, channels)
        elapsed = time.perf_counter() - started
        self.cache.put(key, CachedSchedule(schedule, elapsed))
        return schedule, elapsed, False

    # ------------------------------------------------------------------
    # Public workflow
    # ------------------------------------------------------------------

    def plan(
        self, instance: ProblemInstance, available: int = 1
    ) -> ChannelPlan:
        """Theorem-3.1 capacity analysis (manifested, never cached)."""
        cache_before = self.cache.stats()
        telemetry_before = self.telemetry.snapshot()
        with self.telemetry.timer("plan"):
            plan = plan_channels(instance, available=available)
        self._emit_manifest(
            operation="plan",
            instance=instance,
            parameters={"available": available},
            schedulers=(),
            channels=(available,),
            cache_before=cache_before,
            telemetry_before=telemetry_before,
            results={
                "required": plan.required,
                "sufficient": plan.sufficient,
                "load": plan.load,
                "utilisation": plan.utilisation,
            },
        )
        return plan

    def schedule(
        self,
        instance: ProblemInstance,
        algorithm: str,
        channels: int | None = None,
    ) -> ScheduleResult:
        """Run (or fetch from cache) one scheduler on one channel count.

        Args:
            instance: The workload.
            algorithm: Registry name or alias (``"susc"``, ``"pamad"``,
                ``"mpb"``, ...).
            channels: ``N_real``; defaults to the Theorem-3.1 minimum.

        Returns:
            The scheduler's native result — always a
            :class:`~repro.engine.registry.ScheduleResult`.  Cache hits
            return the identical object.
        """
        resolved = self._resolve_channels(instance, channels)
        name = self.registry.resolve(algorithm)
        cache_before = self.cache.stats()
        telemetry_before = self.telemetry.snapshot()
        schedule, elapsed, hit = self._schedule_cached(
            instance, name, resolved
        )
        self._emit_manifest(
            operation="schedule",
            instance=instance,
            parameters={"algorithm": name, "channels": resolved},
            schedulers=(name,),
            channels=(resolved,),
            cache_before=cache_before,
            telemetry_before=telemetry_before,
            results={
                "cache_hit": hit,
                "elapsed_seconds": round(elapsed, 6),
                "cycle_length": schedule.program.cycle_length,
                "average_delay": schedule.average_delay,
                "meta": dict(schedule.meta),
            },
        )
        return schedule

    def evaluate(
        self,
        instance: ProblemInstance,
        algorithm: str,
        channels: int | None = None,
        num_requests: int = 3000,
        seed: int = 0,
        access_probabilities: Mapping[int, float] | None = None,
    ) -> EngineEvaluation:
        """Schedule (cached) then Monte-Carlo measure one configuration."""
        resolved = self._resolve_channels(instance, channels)
        name = self.registry.resolve(algorithm)
        cache_before = self.cache.stats()
        telemetry_before = self.telemetry.snapshot()
        schedule, _, hit = self._schedule_cached(instance, name, resolved)
        with self.telemetry.timer("measure"):
            measurement = measure_program(
                schedule.program,
                instance,
                num_requests=num_requests,
                seed=seed,
                access_probabilities=access_probabilities,
            )
        manifest = self._emit_manifest(
            operation="evaluate",
            instance=instance,
            parameters={
                "algorithm": name,
                "channels": resolved,
                "num_requests": num_requests,
                "seed": seed,
            },
            schedulers=(name,),
            channels=(resolved,),
            cache_before=cache_before,
            telemetry_before=telemetry_before,
            results={
                "cache_hit": hit,
                "analytic_delay": schedule.average_delay,
                "simulated_delay": measurement.average_delay,
                "miss_ratio": measurement.miss_ratio,
            },
        )
        return EngineEvaluation(
            algorithm=name,
            channels=resolved,
            schedule=schedule,
            measurement=measurement,
            manifest=manifest,
        )

    def sweep(
        self,
        instance: ProblemInstance,
        algorithms: Sequence[str] = ("pamad", "m-pb", "opt"),
        channel_points: Sequence[int] | None = None,
        num_requests: int = 3000,
        seed: int = 0,
        workers: int | None = None,
        policy: ExecutionPolicy | None = None,
        manifest_path: str | Path | None = None,
    ) -> SweepResult:
        """Measure AvgD over a (scheduler × channel-count) grid.

        The grid fans across the engine's pool when ``workers > 1``; cells
        are seeded individually (``seed * 1_000_003 + channels * 101 +
        column``, the historical formula), so parallel, serial and
        repeated runs all produce bit-identical points.

        Args:
            instance: The workload (e.g. a Figure-3 paper instance).
            algorithms: Registry names/aliases to compare.
            channel_points: Channel counts; defaults to
                :func:`default_channel_points` up to the Theorem-3.1
                minimum.
            num_requests: Monte-Carlo stream length per cell.
            seed: Base RNG seed.
            workers: Pool width for this call (default: the engine's).
                A width other than the running pool's replaces it.
            policy: Hardening policy for this call (default: the
                engine's ``execution`` attribute).
            manifest_path: When set, also write this call's manifest
                JSON to the path.

        Returns:
            A :class:`SweepResult` with points ordered by
            (channel count, algorithm order) and the run manifest.
        """
        if channel_points is None:
            channel_points = default_channel_points(
                minimum_channels(instance)
            )
        pool_width = self.workers if workers is None else workers
        names = [self.registry.resolve(name) for name in algorithms]
        schedulers = [(name, self.registry.get(name)) for name in names]
        cache_before = self.cache.stats()
        telemetry_before = self.telemetry.snapshot()

        specs: list[CellSpec] = []
        keys: list[tuple] = []
        with self.telemetry.timer("sweep.prepare"):
            for channels in channel_points:
                for order, (name, scheduler) in enumerate(schedulers):
                    key = program_key(instance, name, channels, scheduler)
                    entry = self.cache.get(key)
                    self.telemetry.incr(
                        "cache.hits" if entry is not None else "cache.misses"
                    )
                    keys.append(key)
                    specs.append(
                        CellSpec(
                            algorithm=name,
                            scheduler=scheduler,
                            channels=channels,
                            instance=instance,
                            num_requests=num_requests,
                            seed=seed * 1_000_003 + channels * 101 + order,
                            cached=entry,
                        )
                    )

        with self.telemetry.timer("sweep.execute"):
            outcomes, report = run_cells(
                specs,
                pool=self._task_pool(pool_width),
                policy=self.execution if policy is None else policy,
                telemetry=self.telemetry,
            )

        points: list[SweepPoint] = []
        failures: list[CellFailure] = []
        for key, cell in zip(keys, outcomes):
            if isinstance(cell, CellFailure):
                failures.append(cell)
                continue
            points.append(cell.point)
            if cell.schedule is not None:
                self.cache.put(
                    key, CachedSchedule(cell.schedule, cell.elapsed_seconds)
                )
                self.telemetry.record_timing(
                    "schedule", cell.elapsed_seconds
                )
        self.telemetry.incr("sweep.cells", len(specs))

        executor_block = report.as_dict()
        executor_block["workers"] = max(1, pool_width)
        manifest = self._emit_manifest(
            operation="sweep",
            instance=instance,
            parameters={
                "algorithms": list(names),
                "channel_points": [int(c) for c in channel_points],
                "num_requests": num_requests,
                "seed": seed,
            },
            schedulers=names,
            channels=[int(c) for c in channel_points],
            executor=executor_block,
            cache_before=cache_before,
            telemetry_before=telemetry_before,
            results={
                "cells": len(points),
                "failed_cells": len(failures),
                "failures": [f.as_dict() for f in failures],
                "total_schedule_seconds": round(
                    sum(p.elapsed_seconds for p in points), 6
                ),
            },
        )
        _write_manifest_path(manifest, manifest_path)
        return SweepResult(
            points=tuple(points),
            manifest=manifest,
            failures=tuple(failures),
        )

    def resilience(
        self,
        instance: ProblemInstance,
        trace,
        policies: Sequence[object] | None = None,
        num_listeners: int = 400,
        seed: int = 0,
        manifest_path: str | Path | None = None,
    ) -> ResilienceResult:
        """Replay a fault plan under recovery policies (manifested).

        Args:
            instance: The workload being broadcast.
            trace: A :class:`~repro.resilience.faultplan.FaultPlan` —
                the fault timeline to replay.
            policies: Policy objects or registry names (see
                :func:`repro.resilience.make_policy`); defaults to one of
                each built-in policy.
            num_listeners: Sampled client listens per replay.
            seed: Base RNG seed for the listener streams.
            manifest_path: When set, also write this call's manifest
                JSON to the path.

        Returns:
            A :class:`ResilienceResult`; its manifest (operation
            ``"resilience"``) records the plan fingerprint/provenance and
            one result row per policy.
        """
        from repro.resilience.policies import (
            default_policies,
            make_policy,
            replay_plan,
        )

        if policies is None:
            chosen = default_policies()
        else:
            chosen = tuple(
                make_policy(p) if isinstance(p, str) else p
                for p in policies
            )
        cache_before = self.cache.stats()
        telemetry_before = self.telemetry.snapshot()
        outcomes = []
        with self.telemetry.timer("resilience.replay"):
            for policy in chosen:
                outcomes.append(
                    replay_plan(
                        instance,
                        trace,
                        policy,
                        num_listeners=num_listeners,
                        seed=seed,
                    )
                )
        self.telemetry.incr("resilience.replays", len(outcomes))

        manifest = self._emit_manifest(
            operation="resilience",
            instance=instance,
            parameters={
                "policies": [p.name for p in chosen],
                "num_listeners": num_listeners,
                "seed": seed,
                "plan": {
                    "fingerprint": trace.fingerprint(),
                    "num_channels": trace.num_channels,
                    "horizon": trace.horizon,
                    "events": len(trace.events),
                    "meta": dict(trace.meta),
                },
            },
            schedulers=(),
            channels=(trace.num_channels,),
            cache_before=cache_before,
            telemetry_before=telemetry_before,
            results={
                "policies": [outcome.as_dict() for outcome in outcomes],
            },
        )
        _write_manifest_path(manifest, manifest_path)
        return ResilienceResult(
            plan=trace, outcomes=tuple(outcomes), manifest=manifest
        )

    def control_manifest(
        self,
        *,
        instance: ProblemInstance,
        parameters: Mapping[str, object],
        channels: Sequence[int],
        results: Mapping[str, object],
        service: Mapping[str, object],
        control: Mapping[str, object],
        cache_before: CacheStats,
        telemetry_before: Mapping[str, dict],
    ) -> RunManifest:
        """Emit the deterministic manifest of a control-plane session.

        The :mod:`repro.control` plane hosts one private engine per
        service (every full re-plan flows through this engine's cache
        and telemetry) and closes the session by emitting one
        operation-``"control"`` manifest through this hook.  Like
        :meth:`live`, the manifest is deterministic — ``created_at``
        pinned to ``0.0``, wall-clock timers dropped — so replaying an
        identical scripted session produces byte-identical output.  The
        ``control`` block carries the remediation policy and the
        detector→proposer→verifier decision trail, and (schema v6)
        the session's durability trail.
        """
        return self._emit_manifest(
            operation="control",
            instance=instance,
            parameters=parameters,
            schedulers=("susc", "pamad"),
            channels=channels,
            cache_before=cache_before,
            telemetry_before=telemetry_before,
            results=results,
            service=service,
            control=control,
            deterministic=True,
        )

    def live(
        self,
        initial: ProblemInstance | Mapping[int, int],
        trace,
        *,
        budget: int | None = None,
        admission: bool = True,
        queue_limit: int = 16,
        slo_window: int = 64,
        target_miss_rate: float = 0.05,
        replan_cooldown: int = 8,
        self_check: bool = False,
        baseline: bool = True,
        coalesce_window: int = 0,
        manifest_path: str | Path | None = None,
    ) -> "LiveServiceResult":
        """Replay a mutation trace through the live runtime (manifested).

        Runs a :class:`~repro.live.service.LiveBroadcastService` on this
        engine — full re-plans go through the program cache and land in
        this engine's telemetry — then optionally replays the same trace
        through the Longest-Wait-First pull baseline for comparison.
        Listener runs replay as vectorised batches, so the manifest's
        ``service.counters.batched_listeners`` equals its listener count.

        The manifest (operation ``"live"``, schema v6) is emitted
        *deterministically*: ``created_at`` is pinned, wall-clock timers
        are dropped, and every remaining field is a pure function of the
        inputs, so two replays of the same trace on fresh engines are
        byte-identical.

        Args:
            initial: Catalog on air at ``t=0`` — a
                :class:`~repro.core.pages.ProblemInstance` or a plain
                ``page_id -> expected_time`` mapping.
            trace: A :class:`~repro.live.mutations.MutationTrace`.
            budget: Channel budget; defaults to the Theorem-3.1
                requirement of the initial catalog.
            admission: Toggle SLO admission control (the EXT11 arms).
            queue_limit: Admission queue capacity.
            slo_window: Rolling miss-rate window width.
            target_miss_rate: Rolling miss-rate threshold that triggers
                a corrective re-plan.
            replan_cooldown: Minimum slots between SLO-triggered
                re-plans.
            self_check: Validate the program after every applied
                mutation (slow; meant for tests).
            baseline: Also replay the trace through the pull baseline.
            coalesce_window: Mutation-coalescing window in slots
                (``0`` = event-by-event); ``service.counters.
                events_coalesced`` / ``replans_avoided`` account for it.
            manifest_path: When set, also write this call's manifest
                JSON to the path.

        Returns:
            A :class:`LiveServiceResult`.
        """
        from repro.live.baseline import replay_pull_lwf
        from repro.live.catalog import LiveCatalog
        from repro.live.service import LiveBroadcastService

        instance = (
            initial
            if isinstance(initial, ProblemInstance)
            else LiveCatalog(initial).to_instance()
        )
        cache_before = self.cache.stats()
        telemetry_before = self.telemetry.snapshot()
        service = LiveBroadcastService(
            initial,
            trace,
            budget=budget,
            engine=self,
            admission=admission,
            queue_limit=queue_limit,
            slo_window=slo_window,
            target_miss_rate=target_miss_rate,
            replan_cooldown=replan_cooldown,
            self_check=self_check,
            coalesce_window=coalesce_window,
        )
        with self.telemetry.timer("live.replay"):
            report = service.run()
        pull = (
            replay_pull_lwf(initial, trace, budget=report.budget)
            if baseline
            else None
        )

        service_block = report.as_dict()
        service_block["baseline"] = pull.as_dict() if pull else None
        manifest = self._emit_manifest(
            operation="live",
            instance=instance,
            parameters={
                "budget": report.budget,
                "admission": admission,
                "queue_limit": queue_limit,
                "slo_window": slo_window,
                "target_miss_rate": target_miss_rate,
                "replan_cooldown": replan_cooldown,
                "coalesce_window": coalesce_window,
                "trace": {
                    "fingerprint": trace.fingerprint(),
                    "horizon": trace.horizon,
                    "events": len(trace.events),
                    "meta": dict(trace.meta),
                },
            },
            schedulers=("susc", "pamad"),
            channels=(report.budget,),
            cache_before=cache_before,
            telemetry_before=telemetry_before,
            results={
                "miss_rate": report.slo["miss_rate"],
                "listeners": report.counters["listeners"],
                "mutations": report.counters["mutations"],
                "incremental_repairs": report.counters[
                    "incremental_repairs"
                ],
                "full_replans": report.counters["full_replans"],
                "rejected": report.admission["rejected"],
                "final_valid": report.final_valid,
                "baseline_miss_rate": (
                    pull.as_dict()["miss_rate"] if pull else None
                ),
            },
            service=service_block,
            deterministic=True,
        )
        _write_manifest_path(manifest, manifest_path)
        return LiveServiceResult(
            report=report, baseline=pull, manifest=manifest
        )

    def federate(
        self,
        initial: ProblemInstance | Mapping[int, int],
        trace,
        *,
        shards: int = 2,
        budget: int | None = None,
        seed: int = 0,
        rebalance_threshold: float = 0.0,
        max_pages_moved: int = 4,
        admission: bool = True,
        queue_limit: int = 16,
        slo_window: int = 64,
        target_miss_rate: float = 0.05,
        replan_cooldown: int = 8,
        workers: int | None = None,
        manifest_path: str | Path | None = None,
    ) -> "FederationResult":
        """Replay a trace across N station shards (manifested, v9).

        Routes the global trace through a
        :class:`~repro.federation.service.FederatedBroadcastService` —
        group-aware consistent-hash placement, federation-wide
        Theorem-3.1 admission, bounded drift rebalancing — and replays
        every shard, fanning across the engine's pool when
        ``workers > 1``.  Shard replays are pure, so the report is
        identical for every worker count.

        The manifest (operation ``"federate"``, schema v9 with the
        ``federation`` block and its ``transport`` field) is emitted
        deterministically, like :meth:`live`: fixed inputs produce
        byte-identical documents.  The ``federation`` block must equal
        the one :func:`repro.oracles.federate_sequential` (the
        per-event reference router) produces; tests and the CI smoke
        job compare the two.

        Args:
            initial: Catalog on air at ``t=0`` (instance or mapping);
                must span at least ``shards`` distinct ladder groups.
            trace: The global :class:`~repro.live.mutations.
                MutationTrace` to route and replay.
            shards: Station shard count.
            budget: *Per-shard* channel budget; defaults to the maximum
                Theorem-3.1 requirement over the initial partitions.
            seed: Ring placement seed.
            rebalance_threshold: Drift trigger as a multiple of the
                federation's mean fractional load (``0`` disables).
            max_pages_moved: Reallocation budget per rebalance trigger.
            admission: Toggle the global admission controller (shard
                services inherit the flag).
            queue_limit: Global FIFO insert-queue capacity.
            slo_window / target_miss_rate / replan_cooldown: Forwarded to
                every shard's live service.
            workers: Fan-out width; defaults to the engine's
                ``workers`` attribute.  The pool is the one sweeps use.
            manifest_path: When set, also write this call's manifest
                JSON to the path.

        Returns:
            A :class:`FederationResult`.
        """
        from repro.federation.service import FederatedBroadcastService
        from repro.live.catalog import LiveCatalog

        instance = (
            initial
            if isinstance(initial, ProblemInstance)
            else LiveCatalog(initial).to_instance()
        )
        cache_before = self.cache.stats()
        telemetry_before = self.telemetry.snapshot()
        workers = self.workers if workers is None else workers
        service = FederatedBroadcastService(
            initial,
            trace,
            shards=shards,
            budget=budget,
            seed=seed,
            rebalance_threshold=rebalance_threshold,
            max_pages_moved=max_pages_moved,
            admission=admission,
            queue_limit=queue_limit,
            slo_window=slo_window,
            target_miss_rate=target_miss_rate,
            replan_cooldown=replan_cooldown,
        )
        with self.telemetry.timer("federate.replay"):
            report = service.run(
                pool=self._task_pool(workers),
                policy=self.execution,
                telemetry=self.telemetry,
            )
        federation_block = report.as_dict()
        manifest = self._emit_manifest(
            operation="federate",
            instance=instance,
            parameters={
                "shards": shards,
                "budget": report.budget,
                "seed": seed,
                "rebalance_threshold": rebalance_threshold,
                "max_pages_moved": max_pages_moved,
                "admission": admission,
                "queue_limit": queue_limit,
                "trace": {
                    "fingerprint": trace.fingerprint(),
                    "horizon": trace.horizon,
                    "events": len(trace.events),
                    "meta": dict(trace.meta),
                },
            },
            schedulers=("susc", "pamad"),
            channels=(report.budget,),
            executor=dict(report.executor),
            cache_before=cache_before,
            telemetry_before=telemetry_before,
            results={
                "shards": report.shards,
                "listeners": report.listeners,
                "misses": report.misses,
                "miss_rate": report.miss_rate(),
                "mutations": report.counters["mutations"],
                "full_replans": report.counters["full_replans"],
                "pages_moved": report.pages_moved,
                "rejected": federation_block["admission"]["rejected"],
                "final_valid": report.final_valid,
            },
            federation=federation_block,
            deterministic=True,
        )
        _write_manifest_path(manifest, manifest_path)
        return FederationResult(report=report, manifest=manifest)


_DEFAULT_ENGINE: BroadcastEngine | None = None
_DEFAULT_ENGINE_LOCK = threading.Lock()


def default_engine() -> BroadcastEngine:
    """The process-wide engine behind the legacy helpers and the CLI.

    Lazily constructed; shares the process-wide scheduler registry, so
    plugins registered via :func:`repro.engine.register_scheduler` are
    immediately sweepable.  Its pool, once started, ends at interpreter
    exit.
    """
    global _DEFAULT_ENGINE
    with _DEFAULT_ENGINE_LOCK:
        if _DEFAULT_ENGINE is None:
            _DEFAULT_ENGINE = BroadcastEngine()
        return _DEFAULT_ENGINE
