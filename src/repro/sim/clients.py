"""Monte-Carlo client measurement of broadcast programs (Section 5).

The paper evaluates every scheduler by replaying client requests
(Figure 4: 3000 per measurement) against the generated broadcast program
and averaging the delay beyond each request's expected time.  This module
is that measurement harness: seeded, and reporting per-group breakdowns
alongside the headline AvgD.

A measurement is one vectorised pass.  The request stream is drawn from
the seeded :class:`random.Random` exactly as
:func:`~repro.workload.requests.generate_requests` draws it (under
uniform access with ``random.choice``'s ``getrandbits`` rejection loop
inlined, so the positions come without a call per request), every wait
comes from one :func:`~repro.core.program.batch_waits` call on the
program's appearance index, and the statistics are folded in request
order with the same Welford steps as
:class:`~repro.sim.metrics.StreamingStats`.  The result equals the
per-request loop kept as
:func:`repro.oracles.replay_requests_sequential` bit for bit, which
``tests/test_measurement_oracle.py`` checks.

The analytic model in :mod:`repro.core.delay` computes the same
expectation in closed form; ``tests/test_sim_clients.py`` asserts the two
agree within Monte-Carlo error, which validates both.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Iterable, Mapping

import numpy as np

from repro.core.errors import SimulationError
from repro.core.pages import ProblemInstance
from repro.core.program import AppearanceIndex, BroadcastProgram, batch_waits
from repro.sim.metrics import StreamingStats
from repro.workload.requests import Request, check_stream

__all__ = [
    "MEASUREMENT_BACKENDS",
    "MeasurementResult",
    "measure_program",
    "measure_with_backend",
    "replay_requests",
]

#: Measurement backends :func:`measure_with_backend` accepts.
MEASUREMENT_BACKENDS = ("scalar",)


@dataclass(frozen=True)
class MeasurementResult:
    """Outcome of replaying a request stream against a program.

    Attributes:
        average_delay: Mean wait beyond the expected time (AvgD, the
            paper's Figure-5 metric).
        average_wait: Mean total wait (broadcast access time).
        miss_ratio: Fraction of requests that waited longer than their
            expected time.
        num_requests: Stream length.
        delay_stats: Full streaming statistics of the per-request delay.
        group_delay: Mean delay per group index (only groups that were
            actually requested appear).
    """

    average_delay: float
    average_wait: float
    miss_ratio: float
    num_requests: int
    delay_stats: StreamingStats
    group_delay: Mapping[int, float]

    def confidence_interval(self, z: float = 1.96) -> tuple[float, float]:
        """95% (by default) CI on the average delay."""
        return self.delay_stats.confidence_interval(z)


def _measure(
    program: BroadcastProgram,
    instance: ProblemInstance,
    positions: np.ndarray,
    arrivals: np.ndarray,
    page_of: Callable[[int], int],
) -> MeasurementResult:
    """Measure requests given by instance page position and arrival.

    ``positions[k]`` is request ``k``'s page in ``instance.pages()``
    order (``-1``: not in the instance) and ``page_of(k)`` its page id.
    Raises what the per-request loop raises, for the first offending
    request in stream order.
    """
    pages = instance.page_table()
    index = AppearanceIndex.from_program(program)
    rows = index.rows_for(pages[:, 0].astype(np.int64))[positions]
    offending = (positions < 0) | (rows < 0)
    if offending.any():
        page = instance.page(page_of(int(offending.argmax())))
        raise SimulationError(
            f"request for page {page.page_id} but the program never "
            "broadcasts it"
        )
    count = positions.shape[0]
    if count == 0:
        raise SimulationError("empty request stream")

    # Python's ``%`` makes an infinite or NaN arrival a NaN wait, and
    # ``fmax`` is ``max(0.0, excess)``: a NaN excess is no delay.
    finite = np.isfinite(arrivals)
    waits = np.full(count, np.nan)
    waits[finite] = batch_waits(
        index, rows[finite], np.mod(arrivals[finite], program.cycle_length)
    )
    delays = np.fmax(waits - pages[positions, 1], 0.0)

    # Welford in request order, the steps of StreamingStats.add; only
    # the delays need the full statistics, the rest only their means.
    mean = m2 = wait_mean = 0.0
    for n, (delay, wait) in enumerate(
        zip(delays.tolist(), waits.tolist()), 1
    ):
        delta = delay - mean
        mean += delta / n
        m2 += delta * (delay - mean)
        wait_mean += (wait - wait_mean) / n
    groups = pages[positions, 2].astype(np.int64)
    group_delay = {}
    # ``bincount`` over the 1-based indexes, not ``np.unique``, whose
    # first call imports ``numpy.ma`` (~15 ms in every fresh worker).
    for group in np.flatnonzero(np.bincount(groups)).tolist():
        group_mean = 0.0
        for n, delay in enumerate(delays[groups == group].tolist(), 1):
            group_mean += (delay - group_mean) / n
        group_delay[group] = group_mean
    delay_stats = StreamingStats(
        count=count,
        mean=mean,
        _m2=m2,
        minimum=float(delays.min()),
        maximum=float(delays.max()),
    )
    return MeasurementResult(
        average_delay=mean,
        average_wait=wait_mean,
        miss_ratio=int(np.count_nonzero(delays > 0)) / count,
        num_requests=count,
        delay_stats=delay_stats,
        group_delay=group_delay,
    )


def _positions(instance: ProblemInstance, page_ids) -> np.ndarray:
    """Each page id's position in ``instance.pages()`` (``-1``: absent)."""
    position = {page.page_id: k for k, page in enumerate(instance.pages())}
    return np.array(
        [position.get(page_id, -1) for page_id in page_ids], dtype=np.int64
    )


def replay_requests(
    program: BroadcastProgram,
    instance: ProblemInstance,
    requests: Iterable[Request],
) -> MeasurementResult:
    """Replay an explicit request iterable and collect delay statistics.

    Each request waits for the next appearance of its page on any channel;
    delay is the wait beyond the page's expected time (clamped at zero).
    Arrivals may lie anywhere: they are reduced into the cycle with
    Python's ``%``.

    Raises:
        InvalidInstanceError: If a request names a page missing from
            the instance.
        SimulationError: If a request names a page the program never
            broadcasts, or the stream is empty.
    """
    pairs = [(request.page_id, request.arrival) for request in requests]
    page_ids = [page_id for page_id, _ in pairs]
    return _measure(
        program,
        instance,
        _positions(instance, page_ids),
        np.array([arrival for _, arrival in pairs], dtype=np.float64),
        page_ids.__getitem__,
    )


def measure_program(
    program: BroadcastProgram,
    instance: ProblemInstance,
    num_requests: int = 3000,
    seed: int = 0,
    access_probabilities: Mapping[int, float] | None = None,
) -> MeasurementResult:
    """Measure a program with a fresh seeded request stream.

    The stream is :func:`~repro.workload.requests.generate_requests`'s
    for ``random.Random(seed)``: the same draws in the same order, taken
    as page positions and arrival fractions without building requests.

    Args:
        program: The broadcast program under test.
        instance: Pages, groups and expected times.
        num_requests: Paper default 3000.
        seed: RNG seed — identical seeds give identical measurements.
        access_probabilities: Optional non-uniform access model (EXT3).

    Returns:
        A :class:`MeasurementResult`.
    """
    cycle = program.cycle_length
    check_stream(num_requests, cycle)
    rng = random.Random(seed)
    draw = rng.random
    chosen: list[int] = []
    fractions: list[float] = []
    pick, fraction = chosen.append, fractions.append
    if access_probabilities is None:
        # ``choice(range(n))`` inlined: the same ``getrandbits`` calls,
        # rejecting draws ``>= n``, returning the position itself.
        n = instance.n
        bits = n.bit_length()
        getrandbits = rng.getrandbits
        for _ in range(num_requests):
            k = getrandbits(bits)
            while k >= n:
                k = getrandbits(bits)
            pick(k)
            fraction(draw())
        population = [page.page_id for page in instance.pages()]
        positions = np.array(chosen, dtype=np.int64)
    else:
        population = list(access_probabilities)
        cumulative = list(
            accumulate(access_probabilities[pid] for pid in population)
        )
        choices = rng.choices
        everyone = range(len(population))
        for _ in range(num_requests):
            pick(choices(everyone, cum_weights=cumulative)[0])
            fraction(draw())
        positions = _positions(instance, population)[
            np.array(chosen, dtype=np.int64)
        ]
    return _measure(
        program,
        instance,
        positions,
        np.array(fractions, dtype=np.float64) * cycle,
        lambda k: population[chosen[k]],
    )


def measure_with_backend(
    program: BroadcastProgram,
    instance: ProblemInstance,
    num_requests: int = 3000,
    seed: int = 0,
    access_probabilities: Mapping[int, float] | None = None,
    backend: str = "scalar",
) -> MeasurementResult:
    """:func:`measure_program` behind a backend name.

    ``"scalar"`` is the only backend; the ``"batch"`` backend, which drew
    a second (numpy) request stream, was removed, so every measurement
    now comes from the one seeded stream.
    """
    if backend == "scalar":
        return measure_program(
            program,
            instance,
            num_requests=num_requests,
            seed=seed,
            access_probabilities=access_probabilities,
        )
    if backend == "batch":
        raise SimulationError(
            "the batch measurement backend and its separate numpy "
            "request stream were removed; measure_program is the one "
            "measurement"
        )
    raise SimulationError(
        f"unknown measurement backend {backend!r}; choose from "
        f"{', '.join(MEASUREMENT_BACKENDS)}"
    )
