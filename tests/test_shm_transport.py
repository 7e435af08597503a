"""The shared-memory post: fallback on failure, and no leaked blocks.

Sweeps post their shared ``ProblemInstance`` and process federations
post their listener columns through one mechanism
(:class:`repro.engine.executor._ShmPost`, attached by
:func:`repro.engine.executor._from_shm`).  When a block cannot be
created the run must degrade to pickled payloads with identical
results and say so in its report; when it can, every block must be
unlinked by the time the run returns.
"""

from __future__ import annotations

import json
import multiprocessing
from dataclasses import replace
from multiprocessing import shared_memory

import pytest

from repro.core.pages import instance_from_counts
from repro.core.pamad import schedule_pamad
from repro.engine import (
    BroadcastEngine,
    ExecutionPolicy,
    SchedulerRegistry,
    get_scheduler,
    program_key,
)
from repro.engine import executor
from repro.federation import FederatedBroadcastService
from repro.workload.mutations import generate_mutation_trace

SWEEP_KWARGS = dict(
    algorithms=("pamad", "m-pb"),
    channel_points=(1, 2, 3),
    num_requests=200,
    seed=7,
)

def _sweep(instance, workers):
    return BroadcastEngine().sweep(
        instance, workers=workers, executor="process", **SWEEP_KWARGS
    )


def _measured(points):
    # Fresh engines re-schedule, so only wall-clock elapsed may differ.
    return [replace(p, elapsed_seconds=0.0) for p in points]


def _federation(**run_kwargs):
    instance = instance_from_counts((4, 4, 4, 4), (4, 8, 16, 32))
    trace = generate_mutation_trace(
        instance, seed=2, horizon=96, mutations=24, listeners=120
    )
    return FederatedBroadcastService(
        instance, trace, shards=2, seed=0
    ).run(**run_kwargs)


def _assert_unlinked(names):
    assert names  # the run posted something
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


def _without_transport(report):
    payload = report.as_dict()
    payload.pop("transport")
    return json.dumps(payload, sort_keys=True)


class TestForcedShmFailure:
    def test_sweep_degrades_to_pickle_with_serial_points(
        self, fig2_instance, no_shared_memory
    ):
        serial = _sweep(fig2_instance, workers=1)
        pooled = _sweep(fig2_instance, workers=2)
        assert pooled.manifest.executor["mode"] == "process"
        assert pooled.manifest.executor["fallback"] is False
        assert pooled.manifest.executor["transport"] == "pickle"
        assert _measured(pooled.points) == _measured(serial.points)

    def test_federation_degrades_to_pickle_with_serial_report(
        self, no_shared_memory
    ):
        serial = _federation(workers=1, mode="serial")
        pooled = _federation(workers=2, mode="process")
        assert pooled.transport == "pickle"
        assert pooled.executor["transport"] == "pickle"
        assert pooled.executor["mode"] == "process"
        assert _without_transport(pooled) == _without_transport(serial)

    def test_federation_fallback_matches_shm_run(self, monkeypatch):
        shm = _federation(workers=2, mode="process")
        assert shm.transport == "shm"

        def refuse(*args, create=False, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(shared_memory, "SharedMemory", refuse)
        pickled = _federation(workers=2, mode="process")
        assert pickled.transport == "pickle"
        assert _without_transport(pickled) == _without_transport(shm)
        assert {**shm.executor, "transport": "pickle"} == pickled.executor

    @pytest.mark.skipif(
        multiprocessing.get_context().get_start_method() != "fork",
        reason="only forked workers inherit the patched attach",
    )
    def test_attach_failure_rebuilds_then_reruns_serially(
        self, fig2_instance, monkeypatch
    ):
        """A worker that cannot attach the post is a pool failure, not
        a cell failure: the grid ends on a serial rerun of plain specs."""
        serial = _sweep(fig2_instance, workers=1)

        def refuse(name, size):
            raise OSError(24, "Too many open files")

        monkeypatch.setattr(executor, "_from_shm", refuse)
        pooled = _sweep(fig2_instance, workers=2)
        assert pooled.manifest.executor["mode"] == "serial"
        assert pooled.manifest.executor["fallback"] is True
        assert pooled.manifest.executor["cell_failures"] == 0
        assert _measured(pooled.points) == _measured(serial.points)


class TestNoLeakedBlocks:
    def test_shm_sweep_unlinks_its_post(self, fig2_instance, shm_posts):
        result = _sweep(fig2_instance, workers=2)
        assert result.manifest.executor["transport"] == "shm"
        _assert_unlinked(shm_posts)

    def test_shm_federation_unlinks_its_post(self, shm_posts):
        report = _federation(workers=2, mode="process")
        assert report.transport == "shm"
        _assert_unlinked(shm_posts)


def _crashing_scheduler(instance, num_channels):
    """A picklable scheduler that always raises."""
    raise ValueError("deliberate crash")


#: Sweep flavours whose outcomes must agree: ``(workers, executor,
#: shared memory allowed)``.
FLAVOURS = {
    "serial": (1, "serial", True),
    "thread": (2, "thread", True),
    "shm": (2, "process", True),
    "pickle": (2, "process", False),
}


class TestPoolMatchesSerial:
    """Every executor flavour leaves the same points, failures and cache.

    A pooled result is unpickled in the parent with the caller's own
    instance put back, so cached schedules must hold that very object,
    as a serial run's do, on a fresh sweep and on a cache-hit re-sweep.
    """

    ALGORITHMS = ("pamad", "m-pb", "opt", "crash")

    def _run(self, instance, flavour, monkeypatch):
        workers, mode, shared = FLAVOURS[flavour]
        registry = SchedulerRegistry()
        for name in self.ALGORITHMS[:-1]:
            registry.register(name, get_scheduler(name))
        registry.register("crash", _crashing_scheduler)
        engine = BroadcastEngine(
            registry=registry,
            workers=workers,
            executor=mode,
            execution=ExecutionPolicy(
                retries=0, backoff=0.0, breaker_threshold=0
            ),
        )
        grid = {**SWEEP_KWARGS, "algorithms": self.ALGORITHMS}
        with monkeypatch.context() as patch:
            if not shared:
                def refuse(*args, **kwargs):
                    raise OSError(28, "No space left on device")

                patch.setattr(shared_memory, "SharedMemory", refuse)
            first = engine.sweep(instance, **grid)
            second = engine.sweep(instance, **grid)
        entries = {}
        for channels in SWEEP_KWARGS["channel_points"]:
            for name in self.ALGORITHMS[:-1]:
                entry = engine.cache.get(
                    program_key(
                        instance, name, channels, registry.get(name)
                    )
                )
                entries[name, channels] = entry.schedule
        return first, second, entries

    @staticmethod
    def _cache_view(entries):
        return {
            key: (
                schedule.program.packed_grid().tolist(),
                schedule.average_delay,
                dict(schedule.meta),
            )
            for key, schedule in entries.items()
        }

    @pytest.mark.parametrize("flavour", ["thread", "shm", "pickle"])
    def test_flavour_matches_serial(
        self, fig2_instance, flavour, monkeypatch
    ):
        serial = self._run(fig2_instance, "serial", monkeypatch)
        pooled = self._run(fig2_instance, flavour, monkeypatch)
        for (first, second, entries), expected_mode in (
            (serial, "serial"),
            (pooled, FLAVOURS[flavour][1]),
        ):
            assert first.manifest.executor["mode"] == expected_mode
            assert second.manifest.executor["mode"] == expected_mode
            # Every schedule is a hit; only the crashing cells miss.
            assert second.manifest.cache_run.hits == len(second.points)
            assert second.points == first.points
            assert second.failures == first.failures
            assert all(
                schedule.instance is fig2_instance
                for schedule in entries.values()
            )
        if flavour in ("shm", "pickle"):
            assert pooled[0].manifest.executor["transport"] == flavour
        assert _measured(pooled[0].points) == _measured(serial[0].points)
        assert pooled[0].failures == serial[0].failures
        assert len(pooled[0].failures) == len(SWEEP_KWARGS["channel_points"])
        assert self._cache_view(pooled[2]) == self._cache_view(serial[2])


class TestAttachCache:
    def test_new_post_evicts_the_previous_attachment(self):
        first = executor._ShmPost({"run": 1})
        second = executor._ShmPost({"run": 2})
        try:
            assert executor._from_shm(first.name, first.size) == {"run": 1}
            assert executor._from_shm(second.name, second.size) == {
                "run": 2
            }
            assert list(executor._SHM_ATTACHED) == [second.name]
        finally:
            first.close()
            second.close()
            executor._SHM_ATTACHED.clear()
