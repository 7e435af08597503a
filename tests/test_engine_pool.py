"""The engine's one process pool: its lifecycle and its faults.

A :class:`~repro.engine.BroadcastEngine` holds at most one
:class:`~repro.engine.TaskPool`.  It starts on the first fan-out, and
every later sweep or federation at that width shares its warm workers.
A fault on that pool must end in the serial run's output or in a typed
failure:

* a worker killed mid-task rebuilds the pool, then reruns serially;
* a shared-memory block that cannot be made degrades to pickling;
* a stuck task times out, and the next call runs on fresh workers.

However the engine ends (closed, left by a ``with`` block, or dropped
unclosed), no worker process and no shared-memory block may remain.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import time
from dataclasses import replace
from multiprocessing import shared_memory

import pytest

from repro.core.pages import instance_from_counts
from repro.core.pamad import schedule_pamad
from repro.engine import (
    BroadcastEngine,
    ExecutionPolicy,
    SchedulerRegistry,
    executor,
    get_scheduler,
)
from repro.federation import service as federation_service
from repro.workload.mutations import generate_mutation_trace

SWEEP_KWARGS = dict(
    algorithms=("pamad", "m-pb"),
    channel_points=(1, 2, 3),
    num_requests=200,
    seed=7,
)


def _in_worker() -> bool:
    return multiprocessing.parent_process() is not None


def _pamad_dies_in_workers(instance, channels):
    """PAMAD, except that a pool worker running it exits on the spot."""
    if _in_worker():
        os._exit(1)
    return schedule_pamad(instance, channels)


class _StallOnce:
    """PAMAD, except that the first pool worker to schedule two
    channels records its pid in ``marker`` and hangs."""

    def __init__(self, marker) -> None:
        self.marker = marker

    def __call__(self, instance, channels):
        if channels == 2 and _in_worker() and not self.marker.exists():
            self.marker.write_text(str(os.getpid()))
            time.sleep(30.0)
        return schedule_pamad(instance, channels)


def _registry(pamad) -> SchedulerRegistry:
    registry = SchedulerRegistry()
    registry.register("pamad", pamad)
    registry.register("m-pb", get_scheduler("m-pb"))
    return registry


def _points(result):
    # Fresh engines re-schedule, so only wall-clock elapsed may differ.
    return [replace(p, elapsed_seconds=0.0) for p in result.points]


def _serial_points(instance, registry=None):
    engine = BroadcastEngine(registry=registry or _registry(schedule_pamad))
    return _points(engine.sweep(instance, **SWEEP_KWARGS))


def _federation_inputs():
    instance = instance_from_counts((4, 4, 4, 4), (4, 8, 16, 32))
    trace = generate_mutation_trace(
        instance, seed=2, horizon=96, mutations=24, listeners=120
    )
    return instance, trace


def _federate(engine):
    instance, trace = _federation_inputs()
    return engine.federate(instance, trace, shards=2).report


def _without_transport(report) -> str:
    payload = report.as_dict()
    payload.pop("transport")
    return json.dumps(payload, sort_keys=True)


def _children() -> set[int]:
    return {child.pid for child in multiprocessing.active_children()}


def _assert_unlinked(names):
    assert names  # the run posted something
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


@pytest.fixture
def pool_widths(monkeypatch) -> list[int]:
    """The width of every process pool started during the test."""
    widths: list[int] = []

    class CountedPool(executor.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            widths.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(executor, "ProcessPoolExecutor", CountedPool)
    return widths


class TestOnePool:
    def test_sweeps_and_federations_share_one_pool(
        self, fig2_instance, pool_widths
    ):
        with BroadcastEngine(workers=2) as engine:
            first = engine.sweep(fig2_instance, **SWEEP_KWARGS)
            second = engine.sweep(fig2_instance, **SWEEP_KWARGS)
            report = _federate(engine)
        assert pool_widths == [2]
        for result in (first, second):
            assert result.manifest.executor["mode"] == "process"
            assert _points(result) == _serial_points(fig2_instance)
        assert report.executor["mode"] == "process"
        assert report.executor["workers"] == 2
        assert report.transport == "shm"

    def test_another_width_replaces_the_pool(
        self, fig2_instance, pool_widths
    ):
        before = _children()
        with BroadcastEngine(workers=2) as engine:
            engine.sweep(fig2_instance, **SWEEP_KWARGS)
            narrow = _children() - before
            wide = engine.sweep(fig2_instance, workers=3, **SWEEP_KWARGS)
            assert not narrow & _children()
        assert pool_widths == [2, 3]
        assert wide.manifest.executor["workers"] == 3
        assert _points(wide) == _serial_points(fig2_instance)

    def test_serial_engine_starts_no_pool(self, fig2_instance, pool_widths):
        with BroadcastEngine(workers=2, executor="serial") as engine:
            result = engine.sweep(fig2_instance, **SWEEP_KWARGS)
        assert pool_widths == []
        assert result.manifest.executor["mode"] == "serial"


class TestKilledWorker:
    def test_sweep_ends_on_the_serial_points(self, fig2_instance):
        registry = _registry(_pamad_dies_in_workers)
        with BroadcastEngine(registry=registry, workers=2) as engine:
            result = engine.sweep(fig2_instance, **SWEEP_KWARGS)
        assert not result.failures
        assert result.manifest.executor["mode"] == "serial"
        assert result.manifest.executor["fallback"] is True
        assert _points(result) == _serial_points(fig2_instance, registry)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="only forked workers inherit the patched shard task",
    )
    def test_federation_ends_on_the_serial_report(self, monkeypatch):
        serial = _federate(BroadcastEngine())
        subtrace = federation_service._subtrace_from_plan

        def die_in_workers(plan):
            if _in_worker():
                os._exit(1)
            return subtrace(plan)

        monkeypatch.setattr(
            federation_service, "_subtrace_from_plan", die_in_workers
        )
        with BroadcastEngine(workers=2) as engine:
            pooled = _federate(engine)
        assert pooled.executor["mode"] == "serial"
        assert pooled.executor["fallback"] is True
        assert _without_transport(pooled) == _without_transport(serial)


class TestShmCreateFailure:
    def test_sweep_and_federation_pickle_instead(
        self, fig2_instance, no_shared_memory
    ):
        serial = _federate(BroadcastEngine())
        with BroadcastEngine(workers=2) as engine:
            swept = engine.sweep(fig2_instance, **SWEEP_KWARGS)
            federated = _federate(engine)
        assert swept.manifest.executor["mode"] == "process"
        assert swept.manifest.executor["transport"] == "pickle"
        assert _points(swept) == _serial_points(fig2_instance)
        assert federated.executor["mode"] == "process"
        assert federated.transport == "pickle"
        assert _without_transport(federated) == _without_transport(serial)


class TestTimeout:
    def test_stuck_cell_fails_typed_and_the_next_sweep_runs_fresh(
        self, fig2_instance, tmp_path
    ):
        marker = tmp_path / "stalled-pid"
        policy = ExecutionPolicy(timeout=0.5, retries=0, backoff=0.0)
        with BroadcastEngine(
            registry=_registry(_StallOnce(marker)),
            workers=2,
            execution=policy,
        ) as engine:
            started = time.perf_counter()
            first = engine.sweep(fig2_instance, **SWEEP_KWARGS)
            assert time.perf_counter() - started < 10.0
            stalled = int(marker.read_text())
            assert stalled not in _children()
            second = engine.sweep(fig2_instance, **SWEEP_KWARGS)
        (failure,) = first.failures
        assert (failure.algorithm, failure.channels) == ("pamad", 2)
        assert failure.error_type == "TimeoutError"
        assert first.manifest.executor["timeouts"] == 1
        assert second.manifest.executor["mode"] == "process"
        assert not second.failures
        assert _points(second) == _serial_points(fig2_instance)


class TestNoLeftovers:
    """No worker and no shared-memory block outlives the engine."""

    def test_after_close(self, fig2_instance, shm_posts):
        before = _children()
        engine = BroadcastEngine(workers=2)
        engine.sweep(fig2_instance, **SWEEP_KWARGS)
        _federate(engine)
        assert _children() - before  # the pool is warm
        engine.close()
        assert _children() <= before
        _assert_unlinked(shm_posts)

    def test_after_a_with_block(self, fig2_instance, shm_posts):
        before = _children()
        with BroadcastEngine(workers=2) as engine:
            engine.sweep(fig2_instance, **SWEEP_KWARGS)
            assert _children() - before
        assert _children() <= before
        _assert_unlinked(shm_posts)

    def test_after_an_unclosed_engine_is_dropped(
        self, fig2_instance, shm_posts
    ):
        before = _children()
        engine = BroadcastEngine(workers=2)
        engine.sweep(fig2_instance, **SWEEP_KWARGS)
        assert _children() - before
        del engine
        gc.collect()
        assert _children() <= before
        _assert_unlinked(shm_posts)

    def test_closed_engine_starts_afresh(self, fig2_instance, pool_widths):
        engine = BroadcastEngine(workers=2)
        engine.sweep(fig2_instance, **SWEEP_KWARGS)
        engine.close()
        with engine:
            result = engine.sweep(fig2_instance, **SWEEP_KWARGS)
        assert pool_widths == [2, 2]
        assert result.manifest.executor["mode"] == "process"
