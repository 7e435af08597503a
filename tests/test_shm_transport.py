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
import os
from dataclasses import replace
from multiprocessing import shared_memory

import pytest

from repro.core.pages import instance_from_counts
from repro.engine import BroadcastEngine
from repro.engine import executor
from repro.engine.executor import ExecutionPolicy
from repro.federation import FederatedBroadcastService
from repro.workload.mutations import generate_mutation_trace

SWEEP_KWARGS = dict(
    algorithms=("pamad", "m-pb"),
    channel_points=(1, 2, 3),
    num_requests=200,
    seed=7,
)

SHM_DIR = "/dev/shm"


def _sweep(instance, workers, **policy):
    return BroadcastEngine(execution=ExecutionPolicy(**policy)).sweep(
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


def _without_transport(report):
    payload = report.as_dict()
    payload.pop("transport")
    return json.dumps(payload, sort_keys=True)


@pytest.fixture
def no_shared_memory(monkeypatch):
    """Make every shared-memory block creation raise ``OSError``."""
    real = shared_memory.SharedMemory

    def refuse(*args, create=False, **kwargs):
        if create:
            raise OSError(28, "No space left on device")
        return real(*args, create=create, **kwargs)

    monkeypatch.setattr(shared_memory, "SharedMemory", refuse)


class TestForcedShmFailure:
    def test_sweep_degrades_to_pickle_with_serial_points(
        self, fig2_instance, no_shared_memory
    ):
        serial = _sweep(fig2_instance, workers=1)
        pooled = _sweep(fig2_instance, workers=2, chunk_size=3)
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
    not os.path.isdir(SHM_DIR), reason="no /dev/shm on this platform"
)
class TestNoLeakedBlocks:
    def test_shm_sweep_unlinks_its_post(self, fig2_instance):
        before = set(os.listdir(SHM_DIR))
        result = _sweep(fig2_instance, workers=2, chunk_size=3)
        assert result.manifest.executor["transport"] == "shm"
        assert set(os.listdir(SHM_DIR)) - before == set()

    def test_shm_federation_unlinks_its_post(self):
        before = set(os.listdir(SHM_DIR))
        report = _federation(workers=2, mode="process")
        assert report.transport == "shm"
        assert set(os.listdir(SHM_DIR)) - before == set()


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
