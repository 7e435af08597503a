"""numpy-vectorised delay evaluation for large sweeps.

The scalar models in :mod:`repro.core.delay` are the reference
implementation — obvious, tested, and fast enough for single programs.
Sweeps evaluate thousands of (program, page) pairs, where Python-level
loops start to dominate; this module provides batch equivalents backed by
numpy, with property tests pinning exact agreement with the scalar code.

Entry points:

* :func:`program_delay_vector` — per-page average delays of one program
  in a single vectorised pass over its cyclic gaps;
* :func:`batch_measure` — Monte-Carlo replay of many requests at once
  (the 3000-request measurement as one ``searchsorted`` call);
* :func:`batch_waits` — next-appearance waits for many requests against
  an :class:`~repro.core.program.AppearanceIndex` (re-exported here).
  A program's index is built once per program version and shared by
  every reader, so repeated measurements of the same program — a sweep
  cell measured under many seeds, or the live service replaying batches
  of listeners between re-plans — never re-pack it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.core.delay import (
    page_average_delay_batch,
    paper_group_delay_batch,
)
from repro.core.errors import SimulationError
from repro.core.pages import ProblemInstance
from repro.core.program import AppearanceIndex, BroadcastProgram

__all__ = [
    "program_delay_vector",
    "program_average_delay_fast",
    "paper_group_delay_batch",
    "AppearanceIndex",
    "batch_waits",
    "BatchMeasurement",
    "batch_measure",
]


def program_delay_vector(
    program: BroadcastProgram, instance: ProblemInstance
) -> dict[int, float]:
    """Per-page analytic average delay, vectorised.

    Exactly equals :func:`repro.core.delay.page_average_delay` for every
    page (tests assert this): it is
    :func:`~repro.core.delay.page_average_delay_batch` over the
    instance's pages, one numpy pass over the program's cyclic gaps.
    """
    pages = list(instance.pages())
    delays = page_average_delay_batch(
        program,
        [page.page_id for page in pages],
        [page.expected_time for page in pages],
    )
    return {
        page.page_id: float(delay) for page, delay in zip(pages, delays)
    }


def program_average_delay_fast(
    program: BroadcastProgram,
    instance: ProblemInstance,
    access_probabilities: Mapping[int, float] | None = None,
) -> float:
    """Vectorised equivalent of :func:`repro.core.delay.program_average_delay`."""
    delays = program_delay_vector(program, instance)
    if access_probabilities is None:
        return sum(delays.values()) / instance.n
    return sum(
        access_probabilities[page_id] * delay
        for page_id, delay in delays.items()
    )


def batch_waits(
    index: AppearanceIndex,
    rows: np.ndarray,
    arrivals: np.ndarray,
) -> np.ndarray:
    """Waiting times for many (page row, arrival) pairs in one pass.

    Bit-identical to calling :meth:`~repro.core.program.
    BroadcastProgram.wait_time` per request: arrivals are reduced into
    ``[0, cycle)`` with ``fmod`` (exactly Python's ``%`` for the
    non-negative times used here), the next appearance is found with a
    single ``searchsorted`` over the whole batch, and the wrapped case
    computes ``(first_slot + cycle) - arrival`` in the scalar's
    operation order.  The search runs on integer keys ``slot + row *
    cycle`` against needles ``ceil(arrival) + row * cycle`` — exact
    arithmetic, and for integer slots ``slot >= arrival`` iff ``slot >=
    ceil(arrival)``, so positions match the scalar scan even for
    arrivals within one ULP of a slot boundary.  Once the index has
    answered as many queries as its dense wait table has cells
    (:meth:`~repro.core.program.AppearanceIndex._wait_table`), the
    search becomes a gather from that table.  Rows must be on air
    (non-empty); callers mask off-air pages first.

    Args:
        index: An appearance index (a program's own or a re-rowed one).
        rows: Row index (into ``index.page_ids``) per request.
        arrivals: Arrival time per request (any non-negative float).

    Returns:
        float64 wait per request, in request order.

    Raises:
        SimulationError: If a row is outside ``[0, len(index.page_ids))``
            or names an off-air page.
    """
    arrivals = np.fmod(
        np.asarray(arrivals, dtype=np.float64), index.cycle_length
    )
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size:
        low, high = int(rows.min()), int(rows.max())
        if low < 0 or high >= index.page_ids.shape[0]:
            raise SimulationError(
                f"row {low if low < 0 else high} out of range "
                f"0..{index.page_ids.shape[0] - 1}"
            )
    lut = index._wait_table(rows.shape[0])
    if lut is not None:
        # Dense fast path: one gather instead of a binary search.  The
        # table stores exact integer slot values (wrap pre-applied), so
        # the subtraction below is the scalar's final operation verbatim
        # — bit-identity holds along both paths.
        cells = np.ceil(arrivals).astype(np.int64)
        cells += rows * (index.cycle_length + 1)
        return lut[cells] - arrivals
    keys, firsts = index._row_keys
    row_firsts = firsts[rows]
    if row_firsts.size and row_firsts.min() < 0:
        bad = rows[row_firsts < 0]
        raise SimulationError(
            f"page {int(index.page_ids[bad.min()])} does not appear in "
            "the program"
        )
    cycle = index.cycle_length
    needles = np.ceil(arrivals).astype(np.int64) + rows * cycle
    pos = np.searchsorted(keys, needles, side="left")
    wrapped = pos == index.offsets[rows + 1]
    next_slot = index.slots[np.where(wrapped, row_firsts, pos)]
    return np.where(wrapped, next_slot + cycle, next_slot) - arrivals


@dataclass(frozen=True)
class BatchMeasurement:
    """Vectorised Monte-Carlo measurement result.

    Attributes:
        average_delay: Mean excess wait (AvgD).
        average_wait: Mean total wait.
        miss_ratio: Fraction of requests past their expected time.
        num_requests: Requests replayed.
    """

    average_delay: float
    average_wait: float
    miss_ratio: float
    num_requests: int


def batch_measure(
    program: BroadcastProgram,
    instance: ProblemInstance,
    num_requests: int = 3000,
    seed: int = 0,
    access_probabilities: Mapping[int, float] | None = None,
) -> BatchMeasurement:
    """Replay ``num_requests`` uniform-arrival requests in one numpy pass.

    Statistically identical to :func:`repro.sim.clients.measure_program`
    (same model, different RNG stream): pages drawn per the access model,
    arrivals uniform over the cycle, wait = time to the next appearance.

    Args:
        program: Program under test.
        instance: Pages and expected times.
        num_requests: Stream length.
        seed: numpy RNG seed.
        access_probabilities: Optional non-uniform page weights.
    """
    if num_requests <= 0:
        raise SimulationError(
            f"num_requests must be positive, got {num_requests}"
        )
    rng = np.random.default_rng(seed)
    cycle = program.cycle_length

    pages = list(instance.pages())
    page_ids = [page.page_id for page in pages]
    expected = np.asarray(
        [page.expected_time for page in pages], dtype=np.float64
    )
    # The program's own index re-rowed to the instance's page order.
    index = AppearanceIndex.from_program(program, page_ids)
    if access_probabilities is None:
        chosen = rng.integers(0, len(pages), size=num_requests)
    else:
        weights = np.asarray(
            [access_probabilities[pid] for pid in page_ids]
        )
        weights = weights / weights.sum()
        chosen = rng.choice(len(pages), size=num_requests, p=weights)
    arrivals = rng.random(num_requests) * cycle

    waits = batch_waits(index, chosen, arrivals)
    excess = np.maximum(waits - expected[chosen], 0.0)
    return BatchMeasurement(
        average_delay=float(excess.mean()),
        average_wait=float(waits.mean()),
        miss_ratio=float((excess > 0).mean()),
        num_requests=num_requests,
    )
