"""numpy-vectorised delay evaluation for large sweeps.

The scalar models in :mod:`repro.core.delay` are the reference
implementation — obvious, tested, and fast enough for single programs.
Sweeps evaluate thousands of (program, page) pairs, where Python-level
loops start to dominate; this module provides batch equivalents backed by
numpy, with property tests pinning exact agreement with the scalar code.

Entry points:

* :func:`program_delay_vector` — per-page average delays of one program
  in a single vectorised pass over its cyclic gaps;
* :func:`~repro.core.program.batch_waits` — next-appearance waits for
  many requests against an :class:`~repro.core.program.AppearanceIndex`
  (both re-exported here from :mod:`repro.core.program`).  A program's
  index is built once per program version and shared by every reader,
  so repeated measurements of the same program — a sweep cell measured
  under many seeds, or the live service replaying batches of listeners
  between re-plans — never re-pack it.  It answers the Figure-5
  measurement (:func:`repro.sim.clients.measure_program`) and the live
  service's listener replay alike.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.delay import (
    page_average_delay_batch,
    paper_group_delay_batch,
)
from repro.core.pages import ProblemInstance
from repro.core.program import AppearanceIndex, BroadcastProgram, batch_waits

__all__ = [
    "program_delay_vector",
    "program_average_delay_fast",
    "paper_group_delay_batch",
    "AppearanceIndex",
    "batch_waits",
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
