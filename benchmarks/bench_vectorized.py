"""Micro-benchmarks: the analytic delay models and the Figure-5 measurement.

Not a paper artefact — an engineering measurement.  The analytic pair
times the per-page AvgD loop
(:func:`repro.oracles.program_average_delay_reference`) against the
array kernel :func:`repro.core.delay.program_average_delay`, whose
result it must equal exactly; the measurement rows time
:func:`repro.sim.clients.measure_program` (one vectorised pass over the
seeded request stream) at the paper's 3,000 requests and at 100,000,
next to the per-request loop it replaced
(:func:`repro.oracles.replay_requests_sequential`), whose result it
must equal exactly (pinned by ``tests/test_measurement_oracle.py``).

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_vectorized.py``.
"""

import random

import pytest

from repro.core.delay import program_average_delay
from repro.core.pamad import schedule_pamad
from repro.oracles import (
    program_average_delay_reference,
    replay_requests_sequential,
)
from repro.sim.clients import measure_program
from repro.workload.generator import paper_instance
from repro.workload.requests import generate_requests


@pytest.fixture(scope="module")
def pamad_13():
    instance = paper_instance("uniform")
    return instance, schedule_pamad(instance, 13).program


def _sequential(program, instance, num_requests, seed):
    return replay_requests_sequential(
        program,
        instance,
        generate_requests(
            instance,
            program.cycle_length,
            num_requests,
            random.Random(seed),
        ),
    )


def test_micro_scalar_analytic(benchmark, pamad_13):
    instance, program = pamad_13
    value = benchmark(program_average_delay_reference, program, instance)
    assert value > 0


def test_micro_vector_analytic(benchmark, pamad_13):
    instance, program = pamad_13
    value = benchmark(program_average_delay, program, instance)
    assert value == program_average_delay_reference(program, instance)


def test_micro_measure_3000(benchmark, pamad_13):
    instance, program = pamad_13
    result = benchmark(measure_program, program, instance, 3000, 0)
    assert result.num_requests == 3000


def test_micro_measure_100k(benchmark, pamad_13):
    instance, program = pamad_13
    result = benchmark(measure_program, program, instance, 100_000, 1)
    assert result.num_requests == 100_000


def test_micro_sequential_replay_3000(benchmark, pamad_13):
    instance, program = pamad_13
    result = benchmark(_sequential, program, instance, 3000, 0)
    assert result.num_requests == 3000


def test_measurement_beats_the_loop_at_scale(pamad_13):
    """One explicit wall-clock comparison at 100k requests."""
    import time

    instance, program = pamad_13
    started = time.perf_counter()
    fast = measure_program(program, instance, num_requests=100_000, seed=1)
    fast_seconds = time.perf_counter() - started
    started = time.perf_counter()
    loop = _sequential(program, instance, 100_000, 1)
    loop_seconds = time.perf_counter() - started
    assert repr(fast) == repr(loop)
    assert fast_seconds < loop_seconds
